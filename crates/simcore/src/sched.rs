//! # sched — the event-scheduling core
//!
//! One future-event list, [`HeapQueue`]: a `BinaryHeap` of 24-byte
//! `(at, seq, handle)` records over the generational [`EventArena`]
//! that holds the payloads (see [`crate::arena`]), with two fast paths
//! that keep the next event out of the heap: a same-instant lane and a
//! front slot.
//!
//! **Ordering contract**: events pop in strictly ascending `(at, seq)`
//! order, where `seq` is the global insertion sequence number, so ties
//! at equal timestamps pop first-in first-out. That holds for every
//! push, including one earlier than the latest pop (the engine never
//! makes one). Cancelled events are tombstoned in the arena and reaped
//! lazily when their record is the earliest, or all at once when a
//! cancel leaves the queue at least [`COMPACT_MIN`] records deep with
//! more tombstones than live events. Either way queue-depth telemetry
//! and every campaign JSON byte downstream depend only on the
//! push/pop/cancel sequence. See ARCHITECTURE.md § The scheduler for
//! why one heap is the right queue for fresh, shallow per-device
//! simulations, and why the two fast paths keep its order.

use std::collections::{BinaryHeap, VecDeque};

pub use crate::arena::{EventArena, EventHandle};
use crate::time::SimTime;

/// Queue depth below which [`HeapQueue::cancel`] never compacts: a
/// shallow queue's tombstones surface soon enough on their own.
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

/// The future event list, min-ordered on `(at, seq)`, payloads inline
/// in an [`EventArena`]. A record lives in one of three places:
///
/// * the **lane**, a FIFO of the records pushed due at `cur` (the
///   latest pop's time, zero before the first pop) once the queue had
///   reached `cur`;
/// * the **front** slot, the earliest record outside the lane when it
///   was pushed as the new minimum; it is never later than a heap
///   record;
/// * the **heap**, everything else.
///
/// `cur` never moves back, so a record outside the lane that is due at
/// `cur` was pushed before the queue reached `cur`, and its `seq` is
/// below every lane record's. The earliest record is therefore the
/// earliest outside the lane when that one is due at or before `cur`,
/// else the lane's front. The lane is empty whenever `cur` advances.
pub struct HeapQueue<T> {
    heap: BinaryHeap<Rec>,
    front: Option<Rec>,
    lane: VecDeque<EventHandle>,
    /// The latest pop's time. A pop earlier than it, which only a push
    /// earlier than it can cause, leaves it.
    cur: SimTime,
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
            front: None,
            lane: VecDeque::new(),
            cur: SimTime::ZERO,
            arena: EventArena::new(),
            seq: 0,
        }
    }

    /// Empty the queue for a new run, keeping the capacity of its heap,
    /// lane and arena: afterwards it pops exactly what a
    /// [`HeapQueue::new`] queue would, `seq` and the latest pop's time
    /// restart at zero, and every handle issued before the clear is
    /// stale ([`EventArena::clear`]).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.front = None;
        self.lane.clear();
        self.cur = SimTime::ZERO;
        self.arena.clear();
        self.seq = 0;
    }

    /// Schedule `payload` at `at`; later pushes at the same `at` pop
    /// later. Returns a handle usable with [`HeapQueue::cancel`].
    pub fn push(&mut self, at: SimTime, payload: T) -> EventHandle {
        let handle = self.arena.insert(payload);
        let seq = self.seq;
        self.seq += 1;
        if at == self.cur {
            self.lane.push_back(handle);
            return handle;
        }
        // A later push has a larger `seq`, so it orders before a record
        // exactly when it is due strictly earlier.
        let rec = Rec { at, seq, handle };
        match self.front {
            Some(front) if at < front.at => {
                self.heap.push(front);
                self.front = Some(rec);
            }
            None if self.heap.peek().is_none_or(|top| at < top.at) => self.front = Some(rec),
            _ => self.heap.push(rec),
        }
        handle
    }

    /// Whether the lane's front is the earliest record: the lane holds
    /// one and no record outside it is due by `cur`.
    fn lane_first(&self) -> bool {
        !self.lane.is_empty()
            && self
                .front
                .as_ref()
                .or(self.heap.peek())
                .is_none_or(|rec| rec.at > self.cur)
    }

    /// The earliest record, live or tombstoned, left in place.
    fn peek_next(&self) -> Option<(SimTime, EventHandle)> {
        if self.lane_first() {
            return self.lane.front().map(|&h| (self.cur, h));
        }
        let rec = self.front.as_ref().or(self.heap.peek())?;
        Some((rec.at, rec.handle))
    }

    /// Remove the earliest record, live or tombstoned.
    fn take_next(&mut self) -> Option<(SimTime, EventHandle)> {
        if self.lane_first() {
            return self.lane.pop_front().map(|h| (self.cur, h));
        }
        let rec = match self.front.take() {
            Some(rec) => rec,
            None => self.heap.pop()?,
        };
        Some((rec.at, rec.handle))
    }

    /// Remove and return the earliest live event, reaping any
    /// tombstones that precede it.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some((at, handle)) = self.take_next() {
            if let Some(payload) = self.arena.take(handle) {
                self.cur = self.cur.max(at);
                return Some((at, payload));
            }
        }
        None
    }

    /// Timestamp of the earliest live event, reaping any tombstones
    /// that precede it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some((at, handle)) = self.peek_next() {
            if self.arena.is_live(handle) {
                return Some(at);
            }
            self.take_next();
            self.arena.take(handle);
        }
        None
    }

    /// Tombstone a pending event. Returns `true` if it was live
    /// (stale handles and double-cancels return `false`). When the
    /// queue holds at least [`COMPACT_MIN`] records and tombstones
    /// outnumber live events, every tombstone is reaped at once, from
    /// the heap, the lane and the front slot, so a cancel-heavy
    /// workload keeps the queue within twice its live events. Pop
    /// order is unchanged: it depends only on `(at, seq)`.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        if !self.arena.cancel(h) {
            return false;
        }
        let live = self.arena.live();
        let len = self.len();
        if len >= COMPACT_MIN && len - live > live {
            let arena = &mut self.arena;
            let mut keep = |h: EventHandle| {
                arena.is_live(h) || {
                    arena.take(h);
                    false
                }
            };
            self.heap.retain(|rec| keep(rec.handle));
            self.lane.retain(|&h| keep(h));
            self.front = self.front.filter(|rec| keep(rec.handle));
        }
        true
    }

    /// Records queued, including tombstones not yet reaped or
    /// compacted (the `sim.queue_depth` gauges report this).
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + usize::from(self.front.is_some())
    }

    /// Whether the queue holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

        /// [`SortedModel::cancel`], then the queue's compaction rule:
        /// at [`COMPACT_MIN`] records or more with tombstones in the
        /// majority, every tombstone goes.
        fn cancel_compacting(&mut self, seq: u64) -> bool {
            let cancelled = self.cancel(seq);
            let live = self.recs.iter().filter(|r| !r.3).count();
            if cancelled && self.recs.len() >= COMPACT_MIN && self.recs.len() - live > live {
                self.recs.retain(|r| !r.3);
            }
            cancelled
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

    /// Which of the heap, the lane and the front slot hold a
    /// tombstone, counting `h` as one.
    fn tombstoned_places(q: &HeapQueue<u64>, h: EventHandle) -> [bool; 3] {
        let dead = |x: EventHandle| x == h || !q.arena.is_live(x);
        [
            q.heap.iter().any(|r| dead(r.handle)),
            q.lane.iter().any(|&x| dead(x)),
            q.front.is_some_and(|f| dead(f.handle)),
        ]
    }

    /// The fast paths under a script built to use them: at least 40%
    /// of pushes due at the latest pop's instant (the lane), pushes
    /// that become the new minimum (the front slot), a few pushes
    /// earlier than the latest pop, cancels aimed at lane and front
    /// records, and phases that grow the queue past [`COMPACT_MIN`]
    /// and then cancel most of it, so compaction finds tombstones in
    /// the heap, the lane and the front slot at once. After every step
    /// the pop order, `peek_time` and `len` match the sorted model.
    #[test]
    fn lane_and_front_keep_order_depth_and_compaction() {
        let (mut pushes, mut same_instant, mut new_min) = (0u64, 0u64, 0u64);
        let (mut lane_cancels, mut front_cancels, mut full_compactions) = (0u64, 0u64, 0u64);
        for seed in 1..=8u64 {
            let mut rng = XorShift(0xA0761D6478BD642F ^ seed);
            let mut q: HeapQueue<u64> = HeapQueue::new();
            let mut model = SortedModel::default();
            let mut pending: Vec<(EventHandle, u64)> = Vec::new();
            let mut now = 0u64;
            for step in 0..6_000u64 {
                // Grow, then cancel most of it, then drain.
                let (push, pop) = match step / 400 % 3 {
                    0 => (60, 10),
                    1 => (30, 10),
                    _ => (30, 50),
                };
                let roll = rng.next() % 100;
                if roll < push {
                    let at = match rng.next() % 20 {
                        0..=8 => now,
                        9..=12 => now + 1 + rng.next() % 500,
                        13 if now > 0 => now - 1 - rng.next() % now.min(1_000),
                        _ => now + rng.next() % 5_000_000,
                    };
                    let h = q.push(nanos(at), step);
                    pending.push((h, model.push(at, step)));
                    pushes += 1;
                    same_instant += u64::from(q.lane.back() == Some(&h));
                    new_min += u64::from(q.front.is_some_and(|f| f.handle == h));
                } else if roll < push + pop {
                    let got = q.pop().map(|(at, v)| (at.as_nanos(), v));
                    assert_eq!(got, model.pop(), "seed {seed} step {step}");
                    if let Some((at, _)) = got {
                        now = now.max(at);
                    }
                } else if !pending.is_empty() {
                    // Half the cancels aim at the front slot or the lane.
                    let i = match rng.next() % 4 {
                        0 => q
                            .front
                            .and_then(|f| pending.iter().position(|p| p.0 == f.handle)),
                        1 => {
                            let lane = &q.lane;
                            let pick = lane.get((rng.next() % lane.len().max(1) as u64) as usize);
                            pick.and_then(|h| pending.iter().position(|p| p.0 == *h))
                        }
                        _ => None,
                    }
                    .unwrap_or((rng.next() % pending.len() as u64) as usize);
                    let (h, seq) = pending.swap_remove(i);
                    let in_front = q.front.is_some_and(|f| f.handle == h);
                    let in_lane = q.lane.contains(&h);
                    let places = tombstoned_places(&q, h);
                    let before = q.len();
                    let cancelled = q.cancel(h);
                    let expected = model.cancel_compacting(seq);
                    assert_eq!(cancelled, expected, "seed {seed} step {step}");
                    lane_cancels += u64::from(cancelled && in_lane);
                    front_cancels += u64::from(cancelled && in_front);
                    if q.len() < before {
                        full_compactions += u64::from(places == [true; 3]);
                    }
                }
                assert_eq!(
                    q.peek_time().map(SimTime::as_nanos),
                    model.peek_time(),
                    "seed {seed} step {step}"
                );
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
        assert!(
            same_instant * 10 >= pushes * 4,
            "{same_instant} of {pushes} pushes in the lane"
        );
        assert!(new_min > 0 && lane_cancels > 0 && front_cancels > 0);
        assert!(
            full_compactions > 0,
            "no compaction met tombstones in all three places"
        );
    }
}
