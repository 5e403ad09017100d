//! Event-arena lifecycle guarantees, measured under the real global
//! allocator: slot reuse after free, generational stale-handle
//! rejection (at the arena and through the engine's `TimerId`), and a
//! zero-allocation steady state for the event queue.

use simcore::sched::{EventArena, HeapQueue};
use simcore::{Ctx, Node, NodeId, Sim, SimDuration, SimTime};

#[global_allocator]
static ALLOC: obs::prof::CountingAlloc = obs::prof::CountingAlloc;

#[test]
fn arena_reuses_freed_slots_without_growing() {
    let mut arena: EventArena<[u64; 4]> = EventArena::new();
    let mut handles: Vec<_> = (0..64).map(|i| arena.insert([i; 4])).collect();
    let high_water = arena.capacity();
    // Free and reinsert many times over: capacity must not move.
    for round in 0..100u64 {
        for h in handles.drain(..) {
            arena.take(h);
        }
        handles.extend((0..64).map(|i| arena.insert([round + i; 4])));
        assert_eq!(arena.capacity(), high_water);
    }
    assert_eq!(arena.live(), 64);
}

#[test]
fn stale_timer_handle_cannot_cancel_a_reused_slot() {
    /// Fires `first`, then sets `second` in the freed slot and tries
    /// to cancel it with the stale handle of `first`.
    struct Reuser {
        first: Option<simcore::TimerId>,
        fired: Vec<u64>,
    }
    impl Node<u32> for Reuser {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.first = Some(ctx.set_timer(SimDuration::from_millis(1), 1));
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, tag: u64) {
            self.fired.push(tag);
            if tag == 1 {
                // The queue is now empty, so this timer reuses the
                // arena slot `first` occupied (with a new generation).
                let _second = ctx.set_timer(SimDuration::from_millis(1), 2);
                // Cancelling through the stale handle must be a no-op.
                ctx.cancel_timer(self.first.expect("set on start"));
            }
        }
    }
    let mut sim = Sim::new(0);
    let n = sim.add_node(Box::new(Reuser {
        first: None,
        fired: vec![],
    }));
    sim.run_until(SimTime::from_millis(10));
    assert_eq!(sim.node::<Reuser>(n).fired, vec![1, 2]);
    let mut snap = obs::Snapshot::default();
    sim.export(&mut snap);
    // The stale cancel was rejected, so nothing was ever cancelled.
    assert_eq!(snap.counter("sim.timers_cancelled"), Some(0));
    assert_eq!(snap.counter("sim.timers_set"), Some(2));
}

/// One churn cycle: push a burst with mixed delays, cancel a third of
/// them, drain everything. Returns the new base time. `scratch` is
/// caller-owned so the cycle itself performs no allocations once its
/// capacity is warm.
fn churn(q: &mut HeapQueue<u64>, base: u64, scratch: &mut Vec<simcore::sched::EventHandle>) -> u64 {
    scratch.clear();
    for i in 0..32u64 {
        let at = base + i * 4_096 + (i % 5) * 61;
        scratch.push(q.push(SimTime::from_nanos(at), i));
    }
    for i in (0..scratch.len()).step_by(3) {
        q.cancel(scratch[i]);
    }
    while q.pop().is_some() {}
    assert!(q.is_empty());
    base + 32 * 4_096
}

#[test]
fn queue_steady_state_allocates_nothing() {
    // Warm up: the first cycle grows the heap, the arena and its free
    // list to the workload's high-water mark; every later cycle has the
    // same in-flight population and reuses that capacity.
    let mut q: HeapQueue<u64> = HeapQueue::new();
    let mut scratch = Vec::new();
    let mut base = 0u64;
    for _ in 0..16 {
        base = churn(&mut q, base, &mut scratch);
    }
    let (allocs_before, bytes_before) = obs::prof::thread_alloc_counts();
    for _ in 0..200 {
        base = churn(&mut q, base, &mut scratch);
    }
    let (allocs_after, bytes_after) = obs::prof::thread_alloc_counts();
    assert_eq!(
        (allocs_after - allocs_before, bytes_after - bytes_before),
        (0, 0),
        "steady-state churn (6400 pushes, 2200 cancels, 6400 pops) must not allocate",
    );
}
