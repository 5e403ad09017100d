//! # arena — generational storage for event payloads
//!
//! The engine does not box events. Every scheduled payload — a message
//! in flight or a pending timer — lives *inline* in an [`EventArena`]
//! slot, and what flows through the scheduler and the dispatch hot path
//! is an [`EventHandle`]: a 64-bit `(slot, generation)` pair. This is
//! the memory discipline behind the engine's zero-allocation
//! steady-state contract (ARCHITECTURE.md § Memory discipline):
//!
//! * **Inline payloads.** A slot holds the payload `T` by value. With a
//!   `Copy` message type (the workspace's `wire::Msg` is `Copy`),
//!   scheduling an event writes a flat record into the slab and popping
//!   it reads the record back — no `Box`, no indirection, no per-event
//!   heap traffic.
//! * **LIFO slot reuse.** Freed slots push onto a free list and the
//!   next insert pops the most recently freed slot. A steady-state
//!   push/pop workload therefore cycles through a handful of warm slots
//!   and allocates nothing once the arena has grown to the workload's
//!   high-water mark. (`obs::prof::CountingAlloc` is how the test suite
//!   and `repro profile` verify this.)
//! * **Generational handles.** Each slot carries a generation counter,
//!   bumped every time the slot is freed. A handle whose generation no
//!   longer matches is *stale*: every operation on it is a no-op. This
//!   is what makes O(1) timer cancellation safe — the SDIO demotion and
//!   PSM timeout state machines cancel and re-arm timers constantly,
//!   and a remembered `TimerId` can never reach into an unrelated event
//!   that happens to reuse the slot.
//! * **Tombstones, reaped lazily.** Cancelling drops the payload
//!   immediately but leaves the slot tombstoned until the queue record
//!   that owns it surfaces in pop order. Exactly one record per slot is
//!   ever in flight, so the scheduler never needs to search for a
//!   cancelled record — it reaps tombstones as they reach the front.
//!
//! Ownership rule of thumb: the **arena owns payloads, handles name
//! them**. A handle is a claim ticket, not a reference — holding one
//! keeps nothing alive, and redeeming it ([`EventArena::take`]) is the
//! only way to move the payload out.

/// Generational handle to an event stored in an [`EventArena`].
///
/// A handle is valid until the event it names is popped or cancelled;
/// after the slot is reused the old handle's generation no longer
/// matches and every operation on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl EventHandle {
    /// Pack into a `u64` (used by the engine to embed handles in
    /// `TimerId` without widening that type).
    pub const fn to_bits(self) -> u64 {
        ((self.generation as u64) << 32) | self.slot as u64
    }

    /// Unpack a handle previously packed with [`EventHandle::to_bits`].
    pub const fn from_bits(bits: u64) -> EventHandle {
        EventHandle {
            slot: bits as u32,
            generation: (bits >> 32) as u32,
        }
    }
}

enum Slot<T> {
    /// Free; next reuse bumps the generation.
    Vacant,
    /// Holds a scheduled payload.
    Live(T),
    /// Cancelled before it surfaced; the queue record still exists and
    /// will reap this slot when it pops.
    Tombstone,
}

/// Slab allocator for event payloads with generational slots.
///
/// `insert` reuses freed slots (LIFO free list) so a steady-state
/// push/pop workload allocates nothing once the arena has grown to the
/// workload's high-water mark. Cancellation tombstones the slot — the
/// payload drops immediately, but the slot is not reusable until the
/// owning queue record surfaces and reaps it, which keeps exactly one
/// record per slot in flight. See the [module docs](self) for the full
/// lifecycle and ownership rules.
pub struct EventArena<T> {
    slots: Vec<(u32, Slot<T>)>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for EventArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventArena<T> {
    /// An empty arena.
    pub fn new() -> EventArena<T> {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Store a payload; returns its handle.
    pub fn insert(&mut self, value: T) -> EventHandle {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.slots[slot as usize];
            debug_assert!(matches!(entry.1, Slot::Vacant));
            entry.1 = Slot::Live(value);
            EventHandle {
                slot,
                generation: entry.0,
            }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push((0, Slot::Live(value)));
            EventHandle {
                slot,
                generation: 0,
            }
        }
    }

    /// Empty the arena for a new run, keeping its slots: every occupied
    /// slot drops its payload and bumps its generation, as
    /// [`EventArena::take`] does, so no handle issued before the clear
    /// names anything after it. The free list then holds every slot,
    /// lowest on top, so inserts fill slots in index order as in a
    /// fresh arena, and growing it again past its old high-water mark is
    /// the only thing that allocates.
    pub fn clear(&mut self) {
        for (generation, slot) in &mut self.slots {
            if !matches!(slot, Slot::Vacant) {
                *slot = Slot::Vacant;
                *generation = generation.wrapping_add(1);
            }
        }
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        self.live = 0;
    }

    /// Remove and return the payload if the handle is current and the
    /// slot is live; frees the slot either way when the handle is
    /// current (a tombstoned slot is reaped to vacant). Stale handles
    /// return `None` and touch nothing.
    pub fn take(&mut self, h: EventHandle) -> Option<T> {
        let entry = self.slots.get_mut(h.slot as usize)?;
        if entry.0 != h.generation || matches!(entry.1, Slot::Vacant) {
            return None;
        }
        let prev = std::mem::replace(&mut entry.1, Slot::Vacant);
        entry.0 = entry.0.wrapping_add(1);
        self.free.push(h.slot);
        match prev {
            Slot::Live(v) => {
                self.live -= 1;
                Some(v)
            }
            Slot::Tombstone => None,
            Slot::Vacant => unreachable!(),
        }
    }

    /// Tombstone a live event: drops the payload and returns `true`.
    /// Stale handles and already-cancelled slots return `false`.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let Some(entry) = self.slots.get_mut(h.slot as usize) else {
            return false;
        };
        if entry.0 != h.generation || !matches!(entry.1, Slot::Live(_)) {
            return false;
        }
        entry.1 = Slot::Tombstone;
        self.live -= 1;
        true
    }

    /// Whether the handle names a still-live (scheduled, not cancelled,
    /// not yet popped) event.
    pub fn is_live(&self, h: EventHandle) -> bool {
        match self.slots.get(h.slot as usize) {
            Some((generation, Slot::Live(_))) => *generation == h.generation,
            _ => false,
        }
    }

    /// Number of live (non-tombstoned) payloads.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (the high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_reuses_slots_and_bumps_generation() {
        let mut arena: EventArena<u32> = EventArena::new();
        let a = arena.insert(1);
        let b = arena.insert(2);
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.take(a), Some(1));
        let c = arena.insert(3);
        // Slot reused, no growth.
        assert_eq!(arena.capacity(), 2);
        assert_eq!(c.slot, a.slot);
        assert_ne!(c.generation, a.generation);
        // The stale handle is inert.
        assert_eq!(arena.take(a), None);
        assert!(!arena.cancel(a));
        assert!(!arena.is_live(a));
        assert_eq!(arena.take(b), Some(2));
        assert_eq!(arena.take(c), Some(3));
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn arena_cancel_tombstones_until_reaped() {
        let mut arena: EventArena<u32> = EventArena::new();
        let a = arena.insert(7);
        assert!(arena.cancel(a));
        assert!(!arena.cancel(a), "double cancel is a no-op");
        assert_eq!(arena.live(), 0);
        // The record owner reaps the tombstone.
        assert_eq!(arena.take(a), None);
        // Now the slot is genuinely free.
        let b = arena.insert(8);
        assert_eq!(b.slot, a.slot);
        assert_eq!(arena.take(b), Some(8));
    }

    #[test]
    fn slot_reuse_is_lifo() {
        let mut arena: EventArena<u32> = EventArena::new();
        let handles: Vec<EventHandle> = (0..4).map(|i| arena.insert(i)).collect();
        // Free 1 then 3: the next inserts must reuse 3 first (LIFO keeps
        // the most recently touched slot — the cache-warm one — in play).
        assert_eq!(arena.take(handles[1]), Some(1));
        assert_eq!(arena.take(handles[3]), Some(3));
        let x = arena.insert(10);
        let y = arena.insert(11);
        assert_eq!(x.slot, handles[3].slot);
        assert_eq!(y.slot, handles[1].slot);
        assert_eq!(arena.capacity(), 4, "no growth while slots are free");
    }

    #[test]
    fn steady_state_cycle_never_grows_past_high_water() {
        let mut arena: EventArena<u64> = EventArena::new();
        // Grow to a high-water mark of 8 in-flight payloads…
        let mut pending: Vec<EventHandle> = (0..8).map(|i| arena.insert(i)).collect();
        let high_water = arena.capacity();
        // …then run a long push/pop steady state at that depth.
        for round in 0..10_000u64 {
            let h = pending.remove((round % 7) as usize);
            assert!(arena.take(h).is_some());
            pending.push(arena.insert(round));
        }
        assert_eq!(arena.capacity(), high_water, "arena grew at steady state");
        assert_eq!(arena.live(), 8);
    }

    #[test]
    fn stale_handles_after_many_reuses_stay_inert() {
        let mut arena: EventArena<u32> = EventArena::new();
        let first = arena.insert(0);
        assert_eq!(arena.take(first), Some(0));
        // Reuse the same slot many times; every retired handle must stay
        // dead even as generations advance.
        let mut retired = vec![first];
        for i in 1..100u32 {
            let h = arena.insert(i);
            assert_eq!(h.slot, first.slot);
            for old in &retired {
                assert!(!arena.is_live(*old));
                assert!(!arena.cancel(*old));
            }
            assert_eq!(arena.take(h), Some(i));
            retired.push(h);
        }
    }

    #[test]
    fn clear_keeps_slots_and_stales_every_handle() {
        let mut arena: EventArena<u32> = EventArena::new();
        let handles: Vec<EventHandle> = (0..4).map(|i| arena.insert(i)).collect();
        assert!(arena.cancel(handles[1]));
        assert_eq!(arena.take(handles[2]), Some(2));
        arena.clear();
        assert_eq!((arena.live(), arena.capacity()), (0, 4));
        for h in &handles {
            assert!(!arena.is_live(*h));
            assert!(!arena.cancel(*h));
            assert_eq!(arena.take(*h), None);
        }
        // Inserts refill the kept slots in index order, each under a
        // generation no old handle carries.
        let refilled: Vec<EventHandle> = (10..14).map(|i| arena.insert(i)).collect();
        assert_eq!(arena.capacity(), 4, "the kept slots were reused");
        for (old, new) in handles.iter().zip(&refilled) {
            assert_eq!(new.slot, old.slot);
            assert_ne!(new.generation, old.generation);
            assert_eq!(arena.take(*old), None);
        }
        assert_eq!(arena.take(refilled[3]), Some(13));
    }

    #[test]
    fn handle_bits_round_trip() {
        let h = EventHandle {
            slot: 0xDEAD_BEEF,
            generation: 0x1234_5678,
        };
        assert_eq!(EventHandle::from_bits(h.to_bits()), h);
    }
}
