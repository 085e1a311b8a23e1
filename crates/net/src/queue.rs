//! A calendar (bucket) event queue for the simulator.
//!
//! The flat `BinaryHeap<Reverse<Event>>` pays O(log n) per operation with
//! poor locality; at thousand-peer scale the heap holds hundreds of
//! thousands of in-flight deliveries and the comparisons dominate the
//! run. This queue exploits the structure of simulated time: events are
//! dense near the cursor and keys only move forward, so hashing each
//! event into a fixed ring of time buckets gives amortised O(1) push and
//! pop while preserving the **exact** `(at_us, seq)` total order the
//! deterministic simulator is specified by (the `seq` tie-break is unique
//! per event, so any correct priority queue yields the identical event
//! sequence).
//!
//! Layout:
//!
//! * a ring of `2^RING_BITS` buckets, each `2^BUCKET_BITS` µs wide, covers
//!   the window `[cursor, cursor + RING)` of bucket numbers;
//! * events outside the window — already-past timestamps and far-future
//!   timers beyond the horizon — go to a spill [`BinaryHeap`] consulted at
//!   every pop, so ordering never depends on the window geometry;
//! * buckets fill unsorted; the front bucket is sorted **descending** once
//!   when the cursor reaches it and popped from the back (min first), with
//!   late pushes into the open front bucket binary-search inserted;
//! * the pop that drains a bucket returns its storage: a query's fan-out
//!   arms one 10 s timeout timer, so the cursor laps the 16.8 s ring every
//!   ≈ 1.7 queries, and a slot that kept its largest burst's capacity held
//!   most of a long run's memory. The ring holds only what is queued.
//!
//! Each slot holds at most one bucket number at a time: pushes land in the
//! ring only when their bucket number lies in `[cursor, cursor + RING)`,
//! and the cursor advances past a slot only once it is empty. The
//! calendar stays although a plain heap needs as little memory: the heap
//! made E22 (1k–5k peers) ≈ 1.5× slower (0.83 → 1.24 s on a 2-vCPU Xeon).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Items a [`CalendarQueue`] can schedule: totally ordered, with a
/// timestamp that is the major key of that order (ties broken by the rest
/// of the `Ord`, which must be unique across live items).
pub trait Scheduled: Ord {
    /// The virtual timestamp, in µs.
    fn at_us(&self) -> u64;
}

/// Bucket width: 2^12 µs ≈ 4.1 ms — a few buckets per WAN hop.
const BUCKET_BITS: u32 = 12;
/// Ring size: 4096 buckets ≈ 16.8 s of horizon before spilling.
const RING_BITS: u32 = 12;
const RING: u64 = 1 << RING_BITS;

/// An amortised-O(1) priority queue over [`Scheduled`] items, a drop-in
/// replacement for `BinaryHeap<Reverse<T>>` (min-first).
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<T>>,
    /// Bucket *number* (not slot) at the front of the window.
    cursor: u64,
    /// Whether the front bucket has been sorted descending.
    front_sorted: bool,
    /// Items currently in the ring.
    ring_len: usize,
    /// Out-of-window items (past the horizon or behind the cursor).
    spill: BinaryHeap<Reverse<T>>,
}

impl<T: Scheduled> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: std::iter::repeat_with(Vec::new)
                .take(RING as usize)
                .collect(),
            cursor: 0,
            front_sorted: false,
            ring_len: 0,
            spill: BinaryHeap::new(),
        }
    }

    fn bucket_of(at_us: u64) -> u64 {
        at_us >> BUCKET_BITS
    }

    fn slot_of(bucket: u64) -> usize {
        (bucket & (RING - 1)) as usize
    }

    pub fn len(&self) -> usize {
        self.ring_len + self.spill.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push(&mut self, item: T) {
        let b = Self::bucket_of(item.at_us());
        // With an empty ring the window is free to move: re-anchor it at
        // the item instead of spilling (keeps quiescent-then-burst
        // workloads, e.g. long lease sweeps, out of the heap).
        if self.ring_len == 0 && (b < self.cursor || b >= self.cursor + RING) {
            self.cursor = b;
            self.front_sorted = false;
        }
        if b < self.cursor || b >= self.cursor + RING {
            self.spill.push(Reverse(item));
            return;
        }
        let slot = Self::slot_of(b);
        let bucket = &mut self.buckets[slot];
        if b == self.cursor && self.front_sorted {
            // The front bucket is open (sorted descending, popped from
            // the back): keep it ordered.
            let pos = bucket.partition_point(|x| *x > item);
            bucket.insert(pos, item);
        } else {
            bucket.push(item);
        }
        self.ring_len += 1;
    }

    /// The timestamp of the minimum item, without removing it.
    pub fn peek_at(&mut self) -> Option<u64> {
        let ring = self
            .open_front()
            .and_then(|slot| self.buckets[slot].last())
            .map(Scheduled::at_us);
        let spilled = self.spill.peek().map(|Reverse(x)| x.at_us());
        match (ring, spilled) {
            (Some(r), Some(s)) => Some(r.min(s)),
            (r, s) => r.or(s),
        }
    }

    pub fn pop(&mut self) -> Option<T> {
        let front = self.open_front();
        let ring_min = front.and_then(|slot| self.buckets[slot].last());
        let from_spill = match (ring_min, self.spill.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(r), Some(Reverse(s))) => s < r,
        };
        if from_spill {
            return self.spill.pop().map(|Reverse(x)| x);
        }
        let bucket = &mut self.buckets[front.expect("ring candidate exists")];
        let item = bucket.pop();
        if bucket.is_empty() {
            // Return the burst's storage: the slot's next lap starts empty.
            *bucket = Vec::new();
        }
        self.ring_len -= 1;
        item
    }

    /// Advances the cursor to the first non-empty bucket, sorting it
    /// descending when newly reached, and returns its slot (`None` when
    /// the ring is empty). The bucket's minimum item is its last element.
    fn open_front(&mut self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        loop {
            let slot = Self::slot_of(self.cursor);
            if self.buckets[slot].is_empty() {
                self.cursor += 1;
                self.front_sorted = false;
                continue;
            }
            if !self.front_sorted {
                self.buckets[slot].sort_unstable_by(|a, b| b.cmp(a));
                self.front_sorted = true;
            }
            return Some(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SplitMix64;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ev {
        at_us: u64,
        seq: u64,
    }
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
        }
    }
    impl Scheduled for Ev {
        fn at_us(&self) -> u64 {
            self.at_us
        }
    }

    /// Randomised push/pop interleavings drain in exactly the order the
    /// reference `BinaryHeap<Reverse<_>>` produces — the determinism
    /// contract the simulator relies on. Covers in-window, past-cursor
    /// and beyond-horizon timestamps plus re-anchoring after drains.
    #[test]
    fn matches_binary_heap_reference() {
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(0xCA1E_0D0E ^ seed);
            let mut cal: CalendarQueue<Ev> = CalendarQueue::new();
            let mut reference: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut clock = 0u64; // monotone lower bound, like sim time
            for _ in 0..2_000 {
                let op = rng.below(10);
                if op < 6 {
                    // Mostly near-future, sometimes far beyond the
                    // horizon, occasionally in the past (pre-cursor).
                    let at = match rng.below(20) {
                        0 => clock.saturating_sub(rng.below(1 << 14)),
                        1..=2 => clock + rng.below(1 << 26),
                        _ => clock + rng.below(1 << 16),
                    };
                    let ev = Ev { at_us: at, seq };
                    seq += 1;
                    cal.push(ev);
                    reference.push(Reverse(ev));
                } else {
                    assert_eq!(cal.peek_at(), reference.peek().map(|r| r.0.at_us));
                    let got = cal.pop();
                    let want = reference.pop().map(|r| r.0);
                    assert_eq!(got, want, "seed {seed}");
                    if let Some(ev) = got {
                        clock = clock.max(ev.at_us);
                    }
                }
                assert_eq!(cal.len(), reference.len());
            }
            while let Some(Reverse(want)) = reference.pop() {
                assert_eq!(cal.pop(), Some(want), "drain, seed {seed}");
            }
            assert!(cal.is_empty());
            assert_eq!(cal.pop(), None);
        }
    }

    /// A long quiescent gap re-anchors the ring instead of spilling, and
    /// ordering still holds across the jump.
    #[test]
    fn reanchors_after_quiescence() {
        let mut q: CalendarQueue<Ev> = CalendarQueue::new();
        q.push(Ev { at_us: 5, seq: 0 });
        assert_eq!(q.pop().unwrap().at_us, 5);
        // 10 virtual minutes later — far beyond the 16.8 s horizon.
        let late = 600_000_000;
        q.push(Ev {
            at_us: late,
            seq: 1,
        });
        q.push(Ev {
            at_us: late + 1,
            seq: 2,
        });
        assert!(q.spill.is_empty(), "empty ring must re-anchor, not spill");
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.is_empty());
    }

    /// Same-timestamp events drain in seq order even when they arrive
    /// out of order into an already-open front bucket.
    #[test]
    fn fifo_within_timestamp() {
        let mut q: CalendarQueue<Ev> = CalendarQueue::new();
        q.push(Ev { at_us: 100, seq: 2 });
        q.push(Ev { at_us: 100, seq: 0 });
        assert_eq!(q.peek_at(), Some(100)); // opens (sorts) the front bucket
        q.push(Ev { at_us: 100, seq: 1 }); // binary-search insert
        q.push(Ev { at_us: 99, seq: 3 }); // past the cursor → spill
        assert_eq!(q.pop().unwrap(), Ev { at_us: 99, seq: 3 });
        for want in 0..3 {
            assert_eq!(q.pop().unwrap().seq, want);
        }
    }

    /// A simulator-shaped load — a fan-out burst into one bucket plus a
    /// 10 s "timeout" per message, every 3 virtual seconds — laps the
    /// ring more than three times. A drained bucket must give its storage
    /// back at once, so an empty slot never holds capacity and a drained
    /// queue holds none at all.
    #[test]
    fn drained_buckets_hold_no_storage_across_laps() {
        const BURST: u64 = 100;
        const TIMEOUT_US: u64 = 10_000_000;
        let horizon = RING << BUCKET_BITS;
        let no_idle_storage = |q: &CalendarQueue<Ev>| {
            for (slot, bucket) in q.buckets.iter().enumerate() {
                assert!(
                    !bucket.is_empty() || bucket.capacity() == 0,
                    "empty slot {slot} keeps capacity {}",
                    bucket.capacity()
                );
            }
        };
        let mut q: CalendarQueue<Ev> = CalendarQueue::new();
        let (mut seq, mut clock, mut last) = (0u64, 0u64, (0, 0));
        let mut pop_due = |q: &mut CalendarQueue<Ev>, until: u64| {
            while q.peek_at().is_some_and(|at| at <= until) {
                let ev = q.pop().unwrap();
                assert!((ev.at_us, ev.seq) > last, "order broken at {ev:?}");
                last = (ev.at_us, ev.seq);
                no_idle_storage(q);
            }
        };
        while clock < 3 * horizon + TIMEOUT_US {
            for _ in 0..BURST {
                q.push(Ev {
                    at_us: clock + 1_000,
                    seq,
                });
                q.push(Ev {
                    at_us: clock + TIMEOUT_US,
                    seq: seq + 1,
                });
                seq += 2;
            }
            no_idle_storage(&q);
            pop_due(&mut q, clock + 1_000);
            clock += 3_000_000;
            pop_due(&mut q, clock);
        }
        assert!(clock / horizon >= 3, "the cursor lapped the ring ≥ 3 times");
        pop_due(&mut q, u64::MAX);
        assert!(q.is_empty());
        let held: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert_eq!(held, 0, "a drained queue holds no bucket storage");
    }
}
