//! The discrete-event engine.
//!
//! A [`Sim`] owns a set of [`Node`]s and a single future-event list. Nodes
//! interact with the world only through a [`Ctx`]: they send messages to
//! other nodes with a delivery delay (modelling propagation/transfer time)
//! and set cancellable timers on themselves. Events at equal timestamps are
//! delivered in insertion order, so a run is fully deterministic for a given
//! seed and construction order.
//!
//! The engine is generic over the message type `M`; the workspace
//! instantiates it with `wire::Msg`.

use std::any::Any;
use std::sync::OnceLock;
use std::time::Instant;

use obs::{PhaseCost, Snapshot};

use crate::rng::DetRng;
use crate::sched::{EventHandle, HeapQueue};
use crate::time::{SimDuration, SimTime};

/// Identifier of a node inside a [`Sim`], assigned by [`Sim::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Build from a raw index (tests use it to name a node without a
    /// [`Sim`]).
    pub const fn from_index(i: usize) -> NodeId {
        NodeId(i)
    }
}

/// Handle for a pending timer, used to cancel it.
///
/// Wraps the scheduler's generational [`EventHandle`]: once the timer
/// fires or is cancelled the handle goes stale, so cancelling it again
/// (or cancelling after the slot was reused by a later event) is a
/// guaranteed no-op rather than a lookup in a tombstone set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Upcast helper so concrete node state can be inspected after a run.
pub trait AsAny {
    /// `&dyn Any` view of self.
    fn as_any(&self) -> &dyn Any;
    /// `&mut dyn Any` view of self.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulation component. Implementations are plain state machines; all
/// scheduling flows through the [`Ctx`].
pub trait Node<M>: AsAny {
    /// Called once when the simulation starts, in node-insertion order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// A message from `from` has arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer set via [`Ctx::set_timer`] has fired. `tag` is the caller's
    /// discriminator.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _tag: u64) {}

    /// The Fig.-1 layer this node models (`phone`, `phy.medium`,
    /// `netem.link`, ...): the row its handler calls land in when a
    /// profiler is installed (see [`Sim::set_profiler`]).
    fn layer(&self) -> &'static str {
        "other"
    }
}

enum Entry<M> {
    Msg { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, tag: u64 },
}

impl<M> Entry<M> {
    /// The node whose handler this event calls.
    fn target(&self) -> NodeId {
        match self {
            Entry::Msg { to, .. } => *to,
            Entry::Timer { node, .. } => *node,
        }
    }

    fn deliver(self, node: &mut dyn Node<M>, ctx: &mut Ctx<'_, M>) {
        match self {
            Entry::Msg { from, msg, .. } => node.on_message(ctx, from, msg),
            Entry::Timer { tag, .. } => node.on_timer(ctx, tag),
        }
    }
}

/// Handler calls between two timed ones. A constant: the profiler's
/// on/off state is its only switch.
const SAMPLE_EVERY: u64 = 64;

/// What timing an empty interval reads on this host, in ns: the median
/// of 63 back-to-back clock reads, measured once per process. Timed
/// calls subtract it, so the clock's own cost stays out of the layers.
fn clock_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut reads = [0u64; 63];
        for r in &mut reads {
            let start = Instant::now();
            *r = start.elapsed().as_nanos() as u64;
        }
        reads.sort_unstable();
        reads[reads.len() / 2]
    })
}

/// One layer's handler calls since the last [`Ledger::flush`].
struct LayerCost {
    name: &'static str,
    calls: u64,
    allocs: u64,
    bytes: u64,
    /// Summed wall nanoseconds of this layer's timed calls.
    sampled_ns: u64,
}

/// Per-layer dispatch totals, kept only while an enabled profiler is
/// installed. Every handler call counts its event and the allocations
/// it made on this thread under its node's layer; every
/// [`SAMPLE_EVERY`]th call is timed, so a layer's time is its timed
/// calls' sum times [`SAMPLE_EVERY`]. The first call of a run, which
/// finds every cache cold, is never timed. Nothing here feeds back into
/// the simulation.
struct Ledger {
    prof: obs::Profiler,
    clock_floor_ns: u64,
    /// Handler calls so far; picks the timed ones.
    tick: u64,
    /// Each node's index into `layers`, filled on its first dispatch.
    node_layer: Vec<Option<usize>>,
    layers: Vec<LayerCost>,
}

impl Ledger {
    fn new(prof: obs::Profiler) -> Ledger {
        Ledger {
            prof,
            clock_floor_ns: clock_floor_ns(),
            tick: 0,
            node_layer: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Deliver `entry` to `node`, charging the call to its layer.
    fn deliver<M>(&mut self, entry: Entry<M>, node: &mut dyn Node<M>, ctx: &mut Ctx<'_, M>) {
        let slot = match self.node_layer.get(ctx.me.0) {
            Some(&Some(slot)) => slot,
            _ => self.intern(ctx.me, node.layer()),
        };
        self.tick += 1;
        let cost = &mut self.layers[slot];
        let (allocs, bytes) = obs::prof::thread_alloc_counts();
        if self.tick.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            entry.deliver(node, ctx);
            let ns = start.elapsed().as_nanos() as u64;
            cost.sampled_ns += ns.saturating_sub(self.clock_floor_ns);
        } else {
            entry.deliver(node, ctx);
        }
        let (allocs_after, bytes_after) = obs::prof::thread_alloc_counts();
        cost.calls += 1;
        cost.allocs += allocs_after - allocs;
        cost.bytes += bytes_after - bytes;
    }

    fn intern(&mut self, id: NodeId, name: &'static str) -> usize {
        let slot = match self.layers.iter().position(|l| l.name == name) {
            Some(slot) => slot,
            None => {
                self.layers.push(LayerCost {
                    name,
                    calls: 0,
                    allocs: 0,
                    bytes: 0,
                    sampled_ns: 0,
                });
                self.layers.len() - 1
            }
        };
        if self.node_layer.len() <= id.0 {
            self.node_layer.resize(id.0 + 1, None);
        }
        self.node_layer[id.0] = Some(slot);
        slot
    }

    /// Record the totals since the last flush as one `sim.dispatch`
    /// aggregate, one child per layer, under the caller's open phase;
    /// then start counting afresh.
    fn flush(&mut self) {
        let cost = |l: &LayerCost| PhaseCost {
            calls: l.calls,
            ns: l.sampled_ns * SAMPLE_EVERY,
            allocs: l.allocs,
            bytes: l.bytes,
        };
        let mut total = PhaseCost::default();
        for c in self.layers.iter().map(cost) {
            total.calls += c.calls;
            total.ns += c.ns;
            total.allocs += c.allocs;
            total.bytes += c.bytes;
        }
        if total.calls > 0 {
            let layers = self.layers.iter().filter(|l| l.calls > 0);
            self.prof
                .record("sim.dispatch", total, layers.map(|l| (l.name, cost(l))));
        }
        for l in &mut self.layers {
            (l.calls, l.allocs, l.bytes, l.sampled_ns) = (0, 0, 0, 0);
        }
    }
}

struct Inner<M> {
    now: SimTime,
    queue: HeapQueue<Entry<M>>,
    rng: DetRng,
    tracer: obs::Tracer,
    stop: bool,
    events_processed: u64,
    /// Future-event-list length after the latest push or pop.
    queue_depth: usize,
    /// High-water mark of the future event list over the sim's lifetime
    /// (deterministic: a pure function of the workload).
    queue_peak: usize,
    timers_set: u64,
    timers_cancelled: u64,
    /// Wall-clock ns spent inside the run loops.
    wall_ns: u64,
}

impl<M> Inner<M> {
    fn push(&mut self, at: SimTime, entry: Entry<M>) -> EventHandle {
        let handle = self.queue.push(at, entry);
        self.queue_depth = self.queue.len();
        self.queue_peak = self.queue_peak.max(self.queue_depth);
        handle
    }
}

/// The world a node sees while handling an event.
pub struct Ctx<'a, M> {
    inner: &'a mut Inner<M>,
    me: NodeId,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The id of the node handling this event.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Deliver `msg` to node `to` after `delay`.
    pub fn send(&mut self, to: NodeId, delay: SimDuration, msg: M) {
        let at = self.inner.now + delay;
        self.inner.push(
            at,
            Entry::Msg {
                from: self.me,
                to,
                msg,
            },
        );
    }

    /// Deliver `msg` to node `to` at absolute time `at` (clamped to now).
    pub fn send_at(&mut self, to: NodeId, at: SimTime, msg: M) {
        let at = at.max(self.inner.now);
        self.inner.push(
            at,
            Entry::Msg {
                from: self.me,
                to,
                msg,
            },
        );
    }

    /// Arrange for [`Node::on_timer`] to be called on this node after
    /// `delay`, carrying `tag`. Returns a handle that can cancel it.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let at = self.inner.now + delay;
        let handle = self.inner.push(at, Entry::Timer { node: self.me, tag });
        self.inner.timers_set += 1;
        TimerId(handle.to_bits())
    }

    /// Cancel a pending timer. Cancelling an already-fired or
    /// already-cancelled timer is a no-op (the generational handle has
    /// gone stale by then).
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.inner.queue.cancel(EventHandle::from_bits(id.0)) {
            self.inner.timers_cancelled += 1;
        }
    }

    /// The node's deterministic random source (shared engine stream; nodes
    /// that need isolation fork their own at construction time).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.inner.rng
    }

    /// The causal span tracer (disabled unless [`Sim::set_tracer`] was
    /// called — every operation on a disabled tracer is a free no-op).
    pub fn tracer(&self) -> &obs::Tracer {
        &self.inner.tracer
    }

    /// Request that the run loop stop after this event.
    pub fn stop(&mut self) {
        self.inner.stop = true;
    }
}

/// The simulator: nodes plus the future event list.
pub struct Sim<M> {
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    inner: Inner<M>,
    /// Present only while an enabled profiler is installed.
    ledger: Option<Ledger>,
    started: bool,
}

impl<M: 'static> Sim<M> {
    /// Create an empty simulation with the given RNG seed. It allocates
    /// nothing until a node or an event is added.
    pub fn new(seed: u64) -> Self {
        Sim::init(Vec::new(), HeapQueue::new(), seed)
    }

    /// Empty the simulation for a new run with RNG seed `seed`, keeping
    /// the capacity of its node list and event queue: every node is
    /// dropped, every pending event discarded, and the result equals
    /// `Sim::new(seed)` in everything but capacity — the clock, the RNG
    /// and the counters restart, the tracer is disabled and no profiler
    /// is installed. A [`TimerId`] taken before the reset cancels
    /// nothing after it. A run no larger than an earlier one on the
    /// same `Sim` then grows nothing.
    pub fn reset(&mut self, seed: u64) {
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let mut queue = std::mem::take(&mut self.inner.queue);
        queue.clear();
        *self = Sim::init(nodes, queue, seed);
    }

    /// The one initializer behind [`Sim::new`] and [`Sim::reset`]: a
    /// fresh simulation seeded `seed` on an empty node list and queue.
    fn init(nodes: Vec<Option<Box<dyn Node<M>>>>, queue: HeapQueue<Entry<M>>, seed: u64) -> Self {
        debug_assert!(nodes.is_empty() && queue.is_empty());
        Sim {
            nodes,
            inner: Inner {
                now: SimTime::ZERO,
                queue,
                rng: DetRng::new(seed),
                tracer: obs::Tracer::disabled(),
                stop: false,
                events_processed: 0,
                queue_depth: 0,
                queue_peak: 0,
                timers_set: 0,
                timers_cancelled: 0,
                wall_ns: 0,
            },
            ledger: None,
            started: false,
        }
    }

    /// Write the engine's counts into `out`: `sim.events_processed`,
    /// `sim.timers_set`, `sim.timers_cancelled`, `sim.advance_ns` (the
    /// simulated time advanced, ns), `sim.wall_ns` (host wall-clock ns
    /// spent in the run loops; the one metric that differs between
    /// identical runs), and the gauges `sim.queue_depth` (after the
    /// latest push or pop) and `sim.queue_depth_peak`.
    pub fn export(&self, out: &mut Snapshot) {
        let inner = &self.inner;
        out.add_counter("sim.advance_ns", inner.now.as_nanos());
        out.add_counter("sim.events_processed", inner.events_processed);
        out.add_counter("sim.timers_cancelled", inner.timers_cancelled);
        out.add_counter("sim.timers_set", inner.timers_set);
        out.add_counter("sim.wall_ns", inner.wall_ns);
        out.add_gauge("sim.queue_depth", inner.queue_depth as i64);
        out.add_gauge("sim.queue_depth_peak", inner.queue_peak as i64);
    }

    /// Install a causal span tracer (replacing the default disabled
    /// one). Nodes reach it through [`Ctx::tracer`]; a clone of the
    /// handle shares the same span store.
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        self.inner.tracer = tracer.clone();
    }

    /// The causal span tracer.
    pub fn tracer(&self) -> &obs::Tracer {
        &self.inner.tracer
    }

    /// Install a self-profiler (replacing the default disabled one).
    /// While it is enabled, every handler call counts its event and
    /// its allocations under its node's [`Node::layer`], and one call
    /// in 64 is timed. At the end of each [`Sim::run_until_or`] (and so
    /// [`Sim::run_until`]) and [`Sim::run_until_idle`] the totals land
    /// in the profiler as one `sim.dispatch` phase (calls = events
    /// dispatched) under the caller's open phase, with one child per
    /// layer whose time is its timed calls scaled by 64. The queue's own
    /// cost stays in the caller's phase. Without an enabled profiler
    /// dispatch pays one branch; profiling never changes what the run
    /// does.
    pub fn set_profiler(&mut self, prof: &obs::Profiler) {
        self.ledger = prof.is_enabled().then(|| Ledger::new(prof.clone()));
    }

    /// Add a node; returns its id. Ids are assigned sequentially.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed
    }

    /// Fork a child RNG from the engine stream (for node construction).
    pub fn fork_rng(&mut self, salt: u64) -> DetRng {
        self.inner.rng.fork(salt)
    }

    /// Inject an external message to be delivered at absolute time `at`.
    /// `from` is attributed as the sender.
    pub fn inject(&mut self, from: NodeId, to: NodeId, at: SimTime, msg: M) {
        let at = at.max(self.inner.now);
        self.inner.push(at, Entry::Msg { from, to, msg });
    }

    /// Immutable typed view of a node's concrete state.
    ///
    /// # Panics
    /// Panics if the id is unknown or the type does not match.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        let node: &dyn Node<M> = &**self.nodes[id.0].as_ref().expect("node is being dispatched");
        node.as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutable typed view of a node's concrete state.
    ///
    /// # Panics
    /// Panics if the id is unknown or the type does not match.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        let node: &mut dyn Node<M> =
            &mut **self.nodes[id.0].as_mut().expect("node is being dispatched");
        node.as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut node = self.nodes[i].take().expect("node present at start");
            {
                let mut ctx = Ctx {
                    inner: &mut self.inner,
                    me: NodeId(i),
                };
                node.on_start(&mut ctx);
            }
            self.nodes[i] = Some(node);
        }
    }

    /// Dispatch the next event, if any. Returns `false` when the event list
    /// is empty or a node requested a stop.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        self.step_to().is_some() && !self.inner.stop
    }

    /// Dispatch the next event, if any, and return the node it went to:
    /// `None` when the event list is empty or a node requested a stop.
    /// The run loops start the nodes once before their first call.
    fn step_to(&mut self) -> Option<NodeId> {
        if self.inner.stop {
            return None;
        }
        // The queue reaps cancelled (tombstoned) events internally, so
        // a successful pop is always a live event.
        let (at, entry) = self.inner.queue.pop()?;
        debug_assert!(at >= self.inner.now, "event from the past");
        self.advance_to(at);
        let to = entry.target();
        self.dispatch(entry);
        Some(to)
    }

    /// Advance the clock to an event's timestamp and account for it.
    fn advance_to(&mut self, at: SimTime) {
        self.inner.now = at;
        self.inner.events_processed += 1;
        self.inner.queue_depth = self.inner.queue.len();
    }

    fn dispatch(&mut self, entry: Entry<M>) {
        let id = entry.target();
        let Some(slot) = self.nodes.get_mut(id.0) else {
            panic!("event for unknown node {id:?}");
        };
        let mut node = slot.take().expect("reentrant dispatch");
        let mut ctx = Ctx {
            inner: &mut self.inner,
            me: id,
        };
        match &mut self.ledger {
            None => entry.deliver(&mut *node, &mut ctx),
            Some(ledger) => ledger.deliver(entry, &mut *node, &mut ctx),
        }
        self.nodes[id.0] = Some(node);
    }

    fn flush_ledger(&mut self) {
        if let Some(ledger) = &mut self.ledger {
            ledger.flush();
        }
    }

    /// Run until the event list drains, a node calls [`Ctx::stop`], or
    /// `max_events` more events have been dispatched (a runaway guard).
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        self.start_if_needed();
        let wall = std::time::Instant::now();
        let start = self.inner.events_processed;
        while self.inner.events_processed - start < max_events {
            if self.step_to().is_none() || self.inner.stop {
                break;
            }
        }
        self.inner.wall_ns += wall.elapsed().as_nanos() as u64;
        self.flush_ledger();
        self.inner.events_processed - start
    }

    /// Process every event with timestamp `<= deadline`, then advance the
    /// clock to exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_watching(deadline, None, |_| false);
    }

    /// [`Sim::run_until`] that also stops as soon as `done` holds. Only
    /// node `watch` can make it hold (a node's state changes only while
    /// it handles an event), so `done` is checked before the first
    /// event and after each event dispatched to `watch`. Returns whether
    /// `done` stopped the run; the clock then stays at the event that
    /// made it hold instead of advancing to `deadline`.
    pub fn run_until_or(
        &mut self,
        deadline: SimTime,
        watch: NodeId,
        done: impl FnMut(&Self) -> bool,
    ) -> bool {
        self.run_watching(deadline, Some(watch), done)
    }

    fn run_watching(
        &mut self,
        deadline: SimTime,
        watch: Option<NodeId>,
        mut done: impl FnMut(&Self) -> bool,
    ) -> bool {
        self.start_if_needed();
        let wall = std::time::Instant::now();
        let mut stopped = false;
        let mut check = true;
        loop {
            if self.inner.stop {
                break;
            }
            if check && done(self) {
                stopped = true;
                break;
            }
            match self.peek_time() {
                Some(t) if t <= deadline => match self.step_to() {
                    Some(to) => check = Some(to) == watch,
                    None => break,
                },
                _ => break,
            }
        }
        if !stopped && self.inner.now < deadline {
            self.inner.now = deadline;
        }
        self.inner.wall_ns += wall.elapsed().as_nanos() as u64;
        self.flush_ledger();
        stopped
    }

    /// Timestamp of the next live (non-cancelled) event. Reaps any
    /// tombstoned timers off the front so the peek is accurate.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.inner.queue.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every message payload it sees along with the arrival time.
    struct Recorder {
        got: Vec<(SimTime, u32)>,
    }

    impl Node<u32> for Recorder {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
            self.got.push((ctx.now(), msg));
        }
    }

    /// Sends `count` messages to a peer on start, spaced `gap` apart.
    struct Sender {
        peer: NodeId,
        count: u32,
        gap: SimDuration,
    }

    impl Node<u32> for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..self.count {
                ctx.send(self.peer, self.gap * u64::from(i), i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, _msg: u32) {}
    }

    #[test]
    fn messages_arrive_in_time_order() {
        let mut sim = Sim::new(0);
        let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
        sim.add_node(Box::new(Sender {
            peer: rec,
            count: 3,
            gap: SimDuration::from_millis(10),
        }));
        sim.run_until_idle(1000);
        let rec = sim.node::<Recorder>(rec);
        assert_eq!(
            rec.got,
            vec![
                (SimTime::ZERO, 0),
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(20), 2)
            ]
        );
    }

    #[test]
    fn same_time_events_are_fifo() {
        struct Burst {
            peer: NodeId,
        }
        impl Node<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                for i in 0..10 {
                    ctx.send(self.peer, SimDuration::from_millis(5), i);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }
        let mut sim = Sim::new(0);
        let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
        sim.add_node(Box::new(Burst { peer: rec }));
        sim.run_until_idle(100);
        let order: Vec<u32> = sim.node::<Recorder>(rec).got.iter().map(|x| x.1).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// Echoes each message back to its sender after 1ms, up to a budget.
    struct Echo {
        budget: u32,
    }
    impl Node<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            if self.budget > 0 {
                self.budget -= 1;
                ctx.send(from, SimDuration::from_millis(1), msg + 1);
            }
        }
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let mut sim = Sim::new(0);
        let a = sim.add_node(Box::new(Echo { budget: 5 }));
        let b = sim.add_node(Box::new(Echo { budget: 100 }));
        sim.inject(b, a, SimTime::ZERO, 0);
        sim.run_until_idle(1000);
        // a replies 5 times, b replies to each of those -> 5 more, then a is out.
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.node::<Echo>(a).budget, 0);
        assert_eq!(sim.node::<Echo>(b).budget, 95);
    }

    struct TimerNode {
        fired: Vec<(SimTime, u64)>,
        cancel_second: bool,
        pending: Vec<TimerId>,
    }
    impl Node<u32> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let t1 = ctx.set_timer(SimDuration::from_millis(1), 1);
            let t2 = ctx.set_timer(SimDuration::from_millis(2), 2);
            let t3 = ctx.set_timer(SimDuration::from_millis(3), 3);
            self.pending = vec![t1, t2, t3];
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, tag: u64) {
            self.fired.push((ctx.now(), tag));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(0);
        let n = sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_second: false,
            pending: vec![],
        }));
        sim.run_until_idle(100);
        let fired = &sim.node::<TimerNode>(n).fired;
        assert_eq!(fired.iter().map(|f| f.1).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = Sim::new(0);
        let n = sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_second: true,
            pending: vec![],
        }));
        sim.run_until_idle(100);
        let fired = &sim.node::<TimerNode>(n).fired;
        assert_eq!(fired.iter().map(|f| f.1).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Sim<u32> = Sim::new(0);
        sim.add_node(Box::new(Recorder { got: vec![] }));
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn run_until_processes_events_at_deadline_inclusive() {
        let mut sim = Sim::new(0);
        let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
        sim.inject(rec, rec, SimTime::from_millis(10), 7);
        sim.inject(rec, rec, SimTime::from_millis(11), 8);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(
            sim.node::<Recorder>(rec).got,
            vec![(SimTime::from_millis(10), 7)]
        );
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.node::<Recorder>(rec).got.len(), 2);
    }

    #[test]
    fn run_until_or_stops_after_the_event_that_meets_the_condition() {
        let prof = obs::Profiler::new();
        let mut sim = Sim::new(0);
        sim.set_profiler(&prof);
        let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
        for i in 1..=5 {
            sim.inject(rec, rec, SimTime::from_millis(i), i as u32);
        }
        let two_seen = |sim: &Sim<u32>| sim.node::<Recorder>(rec).got.len() >= 2;
        {
            let _des = prof.phase("des");
            assert!(sim.run_until_or(SimTime::from_millis(100), rec, two_seen));
        }
        // The clock stays at the second event, not the deadline, and
        // the ledger flushed the two dispatches.
        assert_eq!(sim.now(), SimTime::from_millis(2));
        assert_eq!(sim.events_processed(), 2);
        let calls: u64 = prof.snapshot().threads[0]
            .nodes
            .iter()
            .filter(|n| n.name == "sim.dispatch")
            .map(|n| n.calls)
            .sum();
        assert_eq!(calls, 2);
        // Already met: nothing more runs. A condition that never holds
        // runs to the deadline like `run_until`.
        assert!(sim.run_until_or(SimTime::from_millis(100), rec, two_seen));
        assert_eq!(sim.events_processed(), 2);
        assert!(!sim.run_until_or(SimTime::from_millis(100), rec, |_| false));
        assert_eq!(sim.events_processed(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn stop_halts_the_loop() {
        struct Stopper;
        impl Node<u32> for Stopper {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
                ctx.stop();
            }
        }
        let mut sim = Sim::new(0);
        let s = sim.add_node(Box::new(Stopper));
        sim.inject(s, s, SimTime::from_millis(1), 0);
        sim.inject(s, s, SimTime::from_millis(2), 0);
        let n = sim.run_until_idle(100);
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_millis(1));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> Vec<(SimTime, u32)> {
            struct Jitter {
                peer: NodeId,
            }
            impl Node<u32> for Jitter {
                fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                    for i in 0..50 {
                        let d = ctx.rng().latency_ms(5.0, 2.0, 0.0, 10.0);
                        ctx.send(self.peer, d, i);
                    }
                }
                fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
            }
            let mut sim = Sim::new(seed);
            let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
            sim.add_node(Box::new(Jitter { peer: rec }));
            sim.run_until_idle(1000);
            sim.node::<Recorder>(rec).got.clone()
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        struct CancelAll;
        impl Node<u32> for CancelAll {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                let t = ctx.set_timer(SimDuration::from_millis(1), 0);
                ctx.cancel_timer(t);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }
        let mut sim = Sim::new(0);
        sim.add_node(Box::new(CancelAll));
        sim.run_until_idle(1); // dispatch on_start via first step attempt
        assert_eq!(sim.peek_time(), None);
    }

    #[test]
    fn events_processed_counts() {
        let mut sim = Sim::new(0);
        let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
        for i in 0..5 {
            sim.inject(rec, rec, SimTime::from_millis(i), i as u32);
        }
        sim.run_until_idle(100);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn tracer_reaches_nodes_through_ctx() {
        struct Spanner;
        impl Node<u32> for Spanner {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
                let tracer = ctx.tracer().clone();
                let tr = tracer.begin_trace();
                tracer.span(tr, None, "probe", "app", 0, ctx.now().as_nanos());
            }
        }
        let tracer = obs::Tracer::new();
        let mut sim = Sim::new(0);
        sim.set_tracer(&tracer);
        let n = sim.add_node(Box::new(Spanner));
        sim.inject(n, n, SimTime::from_millis(3), 0);
        sim.run_until_idle(10);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_ns, Some(3_000_000));
        assert!(sim.tracer().is_enabled());
        // An untraced sim hands nodes a disabled tracer.
        assert!(!Sim::<u32>::new(0).tracer().is_enabled());
    }

    #[test]
    fn metrics_track_events_and_sim_advance() {
        let mut sim = Sim::new(0);
        let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
        for i in 0..5 {
            sim.inject(rec, rec, SimTime::from_millis(i), i as u32);
        }
        sim.run_until(SimTime::from_millis(10));
        let mut snap = Snapshot::default();
        sim.export(&mut snap);
        assert_eq!(snap.counter("sim.events_processed"), Some(5));
        // 4ms of event-driven advance + 6ms idle advance to the deadline.
        assert_eq!(snap.counter("sim.advance_ns"), Some(10_000_000));
        assert_eq!(snap.gauge("sim.queue_depth"), Some(0));
        // All 5 injections were queued before the run drained them.
        assert_eq!(snap.gauge("sim.queue_depth_peak"), Some(5));
    }

    /// Every dispatch of the reset script: when, to which node, and the
    /// message (below 1 000) or the timer tag (1 000 and up).
    type Log = std::rc::Rc<std::cell::RefCell<Vec<(SimTime, NodeId, u64)>>>;

    /// Arms `timers` timers at random delays on start and cancels every
    /// third, then plays echo with `peer`, each hop after a random delay,
    /// until its budget runs out; logs every dispatch.
    struct Scripted {
        log: Log,
        peer: NodeId,
        timers: u64,
        budget: u32,
    }

    impl Node<u32> for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for tag in 0..self.timers {
                let delay = SimDuration::from_micros(ctx.rng().uniform_u64(0, 900));
                let timer = ctx.set_timer(delay, 1_000 + tag);
                if tag % 3 == 0 {
                    ctx.cancel_timer(timer);
                }
            }
            ctx.send(self.peer, SimDuration::ZERO, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.log
                .borrow_mut()
                .push((ctx.now(), ctx.me(), u64::from(msg)));
            if self.budget > 0 {
                self.budget -= 1;
                let delay = SimDuration::from_micros(ctx.rng().uniform_u64(0, 40));
                ctx.send(from, delay, msg + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, tag: u64) {
            self.log.borrow_mut().push((ctx.now(), ctx.me(), tag));
        }
    }

    /// What the reset script shows of a run: its dispatches, the clock,
    /// and every exported count but the host's wall time.
    type ScriptRun = (Vec<(SimTime, NodeId, u64)>, SimTime, Vec<Option<i64>>);

    /// Two scripted nodes echoing each other, run to `deadline_us`.
    fn run_script(sim: &mut Sim<u32>, timers: u64, budget: u32, deadline_us: u64) -> ScriptRun {
        let log = Log::default();
        for peer in [1, 0] {
            sim.add_node(Box::new(Scripted {
                log: log.clone(),
                peer: NodeId(peer),
                timers,
                budget,
            }));
        }
        sim.run_until(SimTime::from_micros(deadline_us));
        let mut snap = Snapshot::default();
        sim.export(&mut snap);
        let counts = [
            "sim.advance_ns",
            "sim.events_processed",
            "sim.timers_set",
            "sim.timers_cancelled",
        ];
        let mut seen: Vec<Option<i64>> = counts
            .iter()
            .map(|c| snap.counter(c).map(|v| v as i64))
            .collect();
        seen.extend(["sim.queue_depth", "sim.queue_depth_peak"].map(|g| snap.gauge(g)));
        let dispatched = log.borrow().clone();
        (dispatched, sim.now(), seen)
    }

    #[test]
    fn reset_equals_a_fresh_sim_but_for_capacity() {
        let fresh = run_script(&mut Sim::new(11), 12, 30, 600);
        assert!(fresh.0.len() > 40, "script too small: {}", fresh.0.len());
        // A different seed, a deeper queue (hundreds of timers, a third
        // of them tombstoned), a tracer and a profiler, and a run cut
        // off with events still pending.
        let prof = obs::Profiler::new();
        let mut sim = Sim::new(5);
        sim.set_tracer(&obs::Tracer::new());
        sim.set_profiler(&prof);
        let deep = {
            let _des = prof.phase("des");
            run_script(&mut sim, 300, 500, 450)
        };
        assert!(deep.2[5] > fresh.2[5], "the first run must be deeper");
        assert_ne!(deep.2[4], Some(0), "events left pending at the reset");
        let profiled = prof.snapshot();
        sim.reset(11);
        assert!(!sim.tracer().is_enabled());
        assert_eq!(run_script(&mut sim, 12, 30, 600), fresh);
        assert_eq!(prof.snapshot(), profiled, "no profiler survives a reset");
    }

    #[test]
    fn timer_ids_taken_before_a_reset_cancel_nothing_after_it() {
        /// Arms three timers on start, then cancels handles it was
        /// given from before the reset.
        struct Rearm {
            stale: Vec<TimerId>,
            fired: Vec<u64>,
        }
        impl Node<u32> for Rearm {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                for tag in 1..=3 {
                    ctx.set_timer(SimDuration::from_millis(tag), tag);
                }
                for &t in &self.stale {
                    ctx.cancel_timer(t);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, u32>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Sim::new(0);
        let n = sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_second: false,
            pending: vec![],
        }));
        // The three timers are armed and none has fired.
        sim.run_until(SimTime::from_micros(500));
        let stale = sim.node::<TimerNode>(n).pending.clone();
        sim.reset(0);
        // The new timers take the same slots, one generation on.
        let n = sim.add_node(Box::new(Rearm {
            stale,
            fired: vec![],
        }));
        sim.run_until_idle(100);
        assert_eq!(sim.node::<Rearm>(n).fired, vec![1, 2, 3]);
        let mut snap = Snapshot::default();
        sim.export(&mut snap);
        assert_eq!(snap.counter("sim.timers_cancelled"), Some(0));
    }

    #[test]
    fn profiler_records_dispatch_per_layer() {
        /// Sets and cancels timers on each message; labelled as a layer.
        struct TimerJuggler;
        impl Node<u32> for TimerJuggler {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
                let _keep = ctx.set_timer(SimDuration::from_millis(1), 1);
                let kill = ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.cancel_timer(kill);
            }
            fn layer(&self) -> &'static str {
                "juggler"
            }
        }
        let prof = obs::Profiler::new();
        let mut sim = Sim::new(0);
        sim.set_profiler(&prof);
        let j = sim.add_node(Box::new(TimerJuggler));
        let rec = sim.add_node(Box::new(Recorder { got: vec![] }));
        for i in 0..100 {
            sim.inject(rec, j, SimTime::from_millis(i), 0);
            sim.inject(j, rec, SimTime::from_millis(i), 0);
        }
        {
            let _des = prof.phase("des");
            sim.run_until(SimTime::from_millis(50));
            sim.run_until_idle(1_000);
        }
        let snap = prof.snapshot();
        let t = &snap.threads[0];
        let calls = |name: &str| -> u64 {
            t.nodes
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.calls)
                .sum()
        };
        // 200 messages plus 100 juggler timers; the two runs' records
        // fold into one node under the open phase.
        assert_eq!(sim.events_processed(), 300);
        assert_eq!(calls("sim.dispatch"), 300);
        assert_eq!(calls("juggler"), 200);
        assert_eq!(calls("other"), 100);
        let folded = snap.folded();
        assert!(folded.contains("des;sim.dispatch;juggler"), "{folded}");
        // The removed per-event guards leave no phases behind.
        for gone in ["sim.push", "sim.pop", "sim.timer_cancel"] {
            assert_eq!(calls(gone), 0, "{gone} in {folded}");
        }
        // A sim with a disabled profiler records nothing.
        let off = obs::Profiler::disabled();
        let mut quiet = Sim::new(0);
        quiet.set_profiler(&off);
        let n = quiet.add_node(Box::new(TimerJuggler));
        quiet.inject(n, n, SimTime::ZERO, 0);
        quiet.run_until_idle(10);
        assert_eq!(off.snapshot(), obs::ProfSnapshot::default());
    }
}
