//! Proof of the zero-allocation steady-state dispatch contract.
//!
//! The whole point of the event arena (`simcore::arena`) is that once a
//! simulation has warmed up — every queue slot, trace buffer, and node
//! scratch structure grown to its high-water mark — pushing and popping
//! events touches the heap exactly zero times. This test installs
//! `obs::prof::CountingAlloc` as the global allocator, runs a ping-pong
//! plus timer-churn workload to warm the structures, and then asserts a
//! literal zero allocation delta over a long steady-state window.
//!
//! The same workload with nodes that heap-box every message they
//! handle (the per-event cost the arena removed) must allocate once per
//! event — the contrast proves the counter sees this thread's
//! allocations, so the zero above is not vacuous.
//!
//! A reset keeps that high-water mark: a second identical run on a
//! reset `Sim` (`Sim::reset`), nodes boxed beforehand, allocates
//! nothing at all, from its first event on.

use obs::prof::{thread_alloc_counts, CountingAlloc};
use simcore::{Ctx, Node, NodeId, Sim, SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ping-pong node: echoes every message back to its sender after a
/// fixed delay, and keeps a cancel/re-arm timer cycling (the SDIO/PSM
/// timer reset pattern) so the tombstone path is exercised too. A
/// `boxing` pinger routes each message through a fresh `Box` first.
#[derive(Default)]
struct Pinger {
    peer: Option<NodeId>,
    hops: u64,
    timer: Option<simcore::TimerId>,
    boxing: bool,
}

impl Node<u64> for Pinger {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.hops += 1;
        self.peer = Some(from);
        let msg = if self.boxing {
            *std::hint::black_box(Box::new(msg))
        } else {
            msg
        };
        ctx.send(from, SimDuration::from_micros(13), msg + 1);
        // Reset-on-activity: cancel the pending watchdog and re-arm it,
        // exactly like the SDIO demotion state machine.
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.timer = Some(ctx.set_timer(SimDuration::from_millis(5), 0));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
        // Watchdog fired: nudge the peer so traffic never dies out.
        let _ = tag;
        self.timer = None;
        if let Some(peer) = self.peer {
            ctx.send(peer, SimDuration::from_micros(13), 0);
        }
    }
}

/// Add the two pingers to `sim` and start 16 ping-pong chains between
/// them, so the queue holds more than one in-flight event and the arena
/// cycles through multiple slots.
fn start_pingers(sim: &mut Sim<u64>, nodes: [Box<Pinger>; 2]) -> (NodeId, NodeId) {
    let [a, b] = nodes.map(|node| sim.add_node(node));
    for i in 0..16 {
        sim.inject(a, b, SimTime::from_micros(i), 0);
    }
    (a, b)
}

fn pingers(boxing: bool) -> [Box<Pinger>; 2] {
    [(); 2].map(|_| {
        Box::new(Pinger {
            boxing,
            ..Pinger::default()
        })
    })
}

/// Run the ping-pong workload; returns the allocation count delta over
/// the steady-state window (after warm-up).
fn steady_state_allocs(boxing: bool) -> u64 {
    let mut sim: Sim<u64> = Sim::new(7);
    let (a, b) = start_pingers(&mut sim, pingers(boxing));

    // Warm-up: grow the heap, the arena and the node state to the
    // workload's high-water mark; after that the in-flight population
    // is bounded and every push reuses a freed slot.
    sim.run_until(SimTime::from_millis(1_120));

    let (allocs_before, _) = thread_alloc_counts();
    sim.run_until(SimTime::from_millis(2_100));
    let (allocs_after, _) = thread_alloc_counts();

    let hops = sim.node::<Pinger>(a).hops + sim.node::<Pinger>(b).hops;
    assert!(hops > 10_000, "workload too small to be meaningful: {hops}");
    allocs_after - allocs_before
}

#[test]
fn dispatch_steady_state_allocates_nothing() {
    let delta = steady_state_allocs(false);
    assert_eq!(delta, 0, "steady-state dispatch allocated {delta} times");
}

#[test]
fn boxing_each_message_allocates_per_event() {
    // Boxing every message: tens of thousands of events must mean tens
    // of thousands of allocations on this thread's counter.
    let delta = steady_state_allocs(true);
    assert!(
        delta > 10_000,
        "boxing nodes should allocate per event, saw only {delta}"
    );
}

#[test]
fn rerun_after_reset_allocates_nothing() {
    let mut sim: Sim<u64> = Sim::new(7);
    start_pingers(&mut sim, pingers(false));
    sim.run_until(SimTime::from_millis(1_120));
    sim.reset(7);
    let nodes = pingers(false);

    let (allocs_before, _) = thread_alloc_counts();
    let (a, b) = start_pingers(&mut sim, nodes);
    sim.run_until(SimTime::from_millis(1_120));
    let (allocs_after, _) = thread_alloc_counts();

    let hops = sim.node::<Pinger>(a).hops + sim.node::<Pinger>(b).hops;
    assert!(hops > 10_000, "workload too small to be meaningful: {hops}");
    let delta = allocs_after - allocs_before;
    assert_eq!(delta, 0, "the rerun on a reset sim allocated {delta} times");
}
