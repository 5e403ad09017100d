//! # sched — the event-scheduling core
//!
//! One future-event list, [`HeapQueue`]: a `BinaryHeap` of 24-byte
//! `(at, seq, handle)` records over the generational [`EventArena`]
//! that holds the payloads (see [`crate::arena`]).
//!
//! **Ordering contract**: events pop in strictly ascending `(at, seq)`
//! order, where `seq` is the global insertion sequence number, so ties
//! at equal timestamps pop first-in first-out. Cancelled events are
//! tombstoned in the arena and reaped lazily when their record reaches
//! the front, or all at once when a cancel leaves the heap at least
//! [`COMPACT_MIN`] records deep with more tombstones than live events.
//! Either way queue-depth telemetry and every campaign JSON byte
//! downstream depend only on the push/pop/cancel sequence. See
//! ARCHITECTURE.md § The scheduler for why one heap is the right queue
//! for fresh, shallow per-device simulations.

use std::collections::BinaryHeap;

pub use crate::arena::{EventArena, EventHandle};
use crate::time::SimTime;

/// Heap depth below which [`HeapQueue::cancel`] never compacts: a
/// shallow heap's tombstones surface soon enough on their own.
pub const COMPACT_MIN: usize = 64;

/// A queue record: everything ordering needs, payload left in the
/// arena. `Copy`, 24 bytes — sifting one through the heap is a memcpy,
/// not an allocation.
#[derive(Clone, Copy)]
struct Rec {
    at: SimTime,
    seq: u64,
    handle: EventHandle,
}

impl Rec {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Rec {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Rec {}
impl PartialOrd for Rec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
/// Reversed so the max-`BinaryHeap` orders as a min-heap on `(at, seq)`.
impl Ord for Rec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// The future event list: a `BinaryHeap` min-ordered on `(at, seq)`,
/// payloads inline in an [`EventArena`].
pub struct HeapQueue<T> {
    heap: BinaryHeap<Rec>,
    arena: EventArena<T>,
    seq: u64,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    pub fn new() -> HeapQueue<T> {
        HeapQueue {
            heap: BinaryHeap::new(),
            arena: EventArena::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` at `at`; later pushes at the same `at` pop
    /// later. Returns a handle usable with [`HeapQueue::cancel`].
    pub fn push(&mut self, at: SimTime, payload: T) -> EventHandle {
        let handle = self.arena.insert(payload);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Rec { at, seq, handle });
        handle
    }

    /// Remove and return the earliest live event, reaping any
    /// tombstones that precede it.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(rec) = self.heap.pop() {
            if let Some(payload) = self.arena.take(rec.handle) {
                return Some((rec.at, payload));
            }
        }
        None
    }

    /// Timestamp of the earliest live event, reaping any tombstones
    /// that precede it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(rec) = self.heap.peek() {
            if self.arena.is_live(rec.handle) {
                return Some(rec.at);
            }
            let rec = self.heap.pop().expect("peeked entry exists");
            self.arena.take(rec.handle);
        }
        None
    }

    /// Tombstone a pending event. Returns `true` if it was live
    /// (stale handles and double-cancels return `false`). When the
    /// heap holds at least [`COMPACT_MIN`] records and tombstones
    /// outnumber live events, every tombstone is reaped at once, so a
    /// cancel-heavy workload keeps the heap within twice its live
    /// events. Pop order is unchanged: it depends only on `(at, seq)`.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        if !self.arena.cancel(h) {
            return false;
        }
        let live = self.arena.live();
        if self.heap.len() >= COMPACT_MIN && self.heap.len() - live > live {
            let arena = &mut self.arena;
            self.heap.retain(|rec| {
                arena.is_live(rec.handle) || {
                    arena.take(rec.handle);
                    false
                }
            });
        }
        true
    }

    /// Records in the heap, including tombstones not yet reaped or
    /// compacted (the `sim.queue_depth` gauges report this).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn drain(q: &mut HeapQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, v)) = q.pop() {
            out.push((at.as_nanos(), v));
        }
        out
    }

    #[test]
    fn same_at_ties_break_by_insertion_order() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        for i in 0..32u64 {
            q.push(nanos(5_000), i);
        }
        let got = drain(&mut q);
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            (0..32).collect::<Vec<_>>(),
            "FIFO ties broken"
        );
    }

    #[test]
    fn cancel_reaps_lazily_and_len_counts_tombstones() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        let _a = q.push(nanos(1_000), 0);
        let b = q.push(nanos(2_000), 1);
        let _c = q.push(nanos(3_000), 2);
        assert!(q.cancel(b));
        assert!(!q.cancel(b));
        // Tombstone still counted until its record surfaces.
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
        assert_eq!(q.len(), 2);
        // Popping past the tombstone reaps it.
        assert_eq!(q.pop().map(|(_, v)| v), Some(2));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_reaps_leading_tombstones() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        let a = q.push(nanos(1_000), 0);
        q.push(nanos(2_000), 1);
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(nanos(2_000)));
        assert_eq!(q.len(), 1);
    }

    /// Deterministic xorshift for the randomized model check.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The ordering contract written the obvious way: every record in
    /// a `Vec` sorted descending by `(at, seq)` so the minimum sits at
    /// the end; cancelled records stay (and count toward `len`) until
    /// they reach the end, exactly like the heap's tombstones.
    #[derive(Default)]
    struct SortedModel {
        /// `(at, seq, value, cancelled)`, descending by `(at, seq)`.
        recs: Vec<(u64, u64, u64, bool)>,
        seq: u64,
    }

    impl SortedModel {
        fn push(&mut self, at: u64, v: u64) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            let idx = self.recs.partition_point(|r| (r.0, r.1) > (at, seq));
            self.recs.insert(idx, (at, seq, v, false));
            seq
        }

        fn reap(&mut self) {
            while self.recs.last().is_some_and(|r| r.3) {
                self.recs.pop();
            }
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            self.reap();
            self.recs.pop().map(|(at, _, v, _)| (at, v))
        }

        fn peek_time(&mut self) -> Option<u64> {
            self.reap();
            self.recs.last().map(|r| r.0)
        }

        fn cancel(&mut self, seq: u64) -> bool {
            match self.recs.iter_mut().find(|r| r.1 == seq && !r.3) {
                Some(r) => {
                    r.3 = true;
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn randomized_against_sorted_vec_model() {
        for seed in 1..=8u64 {
            let mut rng = XorShift(0x9E3779B97F4A7C15 ^ seed);
            let mut q: HeapQueue<u64> = HeapQueue::new();
            let mut model = SortedModel::default();
            let mut handles: Vec<(EventHandle, u64)> = Vec::new();
            let mut now = 0u64;
            for step in 0..4_000u64 {
                match rng.next() % 10 {
                    // Push with a mix of tie, near, far and > 60 s delays.
                    0..=5 => {
                        let delay = match rng.next() % 5 {
                            0 => 0,
                            1 => rng.next() % 10_000,
                            2 => rng.next() % 5_000_000,
                            3 => rng.next() % 2_000_000_000,
                            _ => 60_000_000_000 + rng.next() % 60_000_000_000,
                        };
                        let h = q.push(nanos(now + delay), step);
                        handles.push((h, model.push(now + delay, step)));
                    }
                    6..=7 => {
                        assert_eq!(
                            q.peek_time().map(SimTime::as_nanos),
                            model.peek_time(),
                            "seed {seed} step {step}"
                        );
                        let got = q.pop().map(|(at, v)| (at.as_nanos(), v));
                        assert_eq!(got, model.pop(), "seed {seed} step {step}");
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                    _ => {
                        if !handles.is_empty() {
                            let (h, seq) = handles[(rng.next() % handles.len() as u64) as usize];
                            assert_eq!(q.cancel(h), model.cancel(seq), "seed {seed} step {step}");
                        }
                    }
                }
                assert_eq!(q.len(), model.recs.len(), "seed {seed} step {step}");
            }
            loop {
                let got = q.pop().map(|(at, v)| (at.as_nanos(), v));
                assert_eq!(got, model.pop(), "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// Mostly cancels, so the heap crosses [`COMPACT_MIN`] with
    /// tombstones in the majority: compaction must keep the pop order
    /// of the sorted model, and every cancel that tombstones an event
    /// must leave at most `max(63, 2·live)` records.
    #[test]
    fn cancel_heavy_compaction_keeps_order_and_bounds_depth() {
        let mut compactions = 0;
        for seed in 1..=8u64 {
            let mut rng = XorShift(0xD1B54A32D192ED03 ^ seed);
            let mut q: HeapQueue<u64> = HeapQueue::new();
            let mut model = SortedModel::default();
            let mut pending: Vec<(EventHandle, u64)> = Vec::new();
            let mut now = 0u64;
            for step in 0..6_000u64 {
                match rng.next() % 10 {
                    0..=4 => {
                        let at = now + rng.next() % 5_000_000;
                        let h = q.push(nanos(at), step);
                        pending.push((h, model.push(at, step)));
                    }
                    5 => {
                        let got = q.pop().map(|(at, v)| (at.as_nanos(), v));
                        assert_eq!(got, model.pop(), "seed {seed} step {step}");
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                    _ => {
                        if pending.is_empty() {
                            continue;
                        }
                        let i = (rng.next() % pending.len() as u64) as usize;
                        let (h, seq) = pending.swap_remove(i);
                        let before = q.len();
                        let cancelled = q.cancel(h);
                        assert_eq!(cancelled, model.cancel(seq), "seed {seed} step {step}");
                        if !cancelled {
                            // Already popped: a stale handle touches nothing.
                            assert_eq!(q.len(), before);
                            continue;
                        }
                        let live = model.recs.iter().filter(|r| !r.3).count();
                        if q.len() < before {
                            compactions += 1;
                            assert_eq!(q.len(), live, "compaction reaps every tombstone");
                        }
                        assert!(
                            q.len() <= (2 * live).max(COMPACT_MIN - 1),
                            "seed {seed} step {step}: {} records for {live} live",
                            q.len()
                        );
                    }
                }
                assert_eq!(
                    q.peek_time().map(SimTime::as_nanos),
                    model.peek_time(),
                    "seed {seed} step {step}"
                );
            }
            loop {
                let got = q.pop().map(|(at, v)| (at.as_nanos(), v));
                assert_eq!(got, model.pop(), "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
        }
        assert!(compactions > 0, "the workload never compacted");
    }
}
