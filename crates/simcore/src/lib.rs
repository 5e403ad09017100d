//! # simcore — deterministic discrete-event simulation engine
//!
//! The foundation of the AcuteMon reproduction suite. Everything that ticks
//! in the simulated testbed — SDIO watchdogs, 802.11 beacons, PSM timeouts,
//! netem delays, probe schedules — runs on this engine.
//!
//! Design points (see `DESIGN.md` §6):
//!
//! * **Integer nanosecond time** ([`SimTime`], [`SimDuration`]): no float
//!   drift, total ordering, bit-identical reruns.
//! * **Deterministic event list** ([`Sim`]): ties at equal timestamps break
//!   by insertion sequence.
//! * **One event queue** ([`sched::HeapQueue`]): a binary heap of
//!   `(at, seq, handle)` records popping in strict `(at, seq)` order,
//!   with a same-instant lane and a front slot that keep the next event
//!   out of the heap.
//! * **Id-keyed maps** ([`IdMap`]): the per-packet tables hash their
//!   simulator-allocated `u64` keys with one multiply, not SipHash.
//! * **Arena-resident payloads** ([`arena`]): event payloads live inline
//!   in generational slots; the dispatch hot path moves `Copy` records
//!   and handles, never boxes, and allocates nothing at steady state.
//! * **Reset, not rebuilt** ([`Sim::reset`]): a run after a reset starts
//!   as `Sim::new` would but on the node list and queue earlier runs
//!   grew, so run after run on one `Sim` allocates nothing for them.
//! * **Cancellable timers** ([`TimerId`]): the SDIO demotion and PSM timeout
//!   state machines constantly reset their timers on activity; cancellation
//!   tombstones the event's arena slot and the queue reaps it lazily, so
//!   resets are O(1).
//! * **Seeded randomness** ([`DetRng`], [`LatencyDist`]): every stochastic
//!   model parameter is an explicit distribution.
//! * **Causal span tracing** ([`Sim::set_tracer`]): nodes reach one
//!   shared [`obs::Tracer`] through [`Ctx::tracer`]; the default handle
//!   is disabled and every operation on it is a no-op.
//!
//! The engine is message-type generic; the rest of the workspace uses
//! `wire::Msg`. The examples in the module tests use plain integers.
//!
//! ```
//! use simcore::{Sim, Node, Ctx, NodeId, SimDuration, SimTime};
//!
//! struct Counter { seen: u32 }
//! impl Node<u32> for Counter {
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
//!         self.seen += msg;
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let counter = sim.add_node(Box::new(Counter { seen: 0 }));
//! sim.inject(counter, counter, SimTime::from_millis(1), 41);
//! sim.inject(counter, counter, SimTime::from_millis(2), 1);
//! sim.run_until_idle(100);
//! assert_eq!(sim.node::<Counter>(counter).seen, 42);
//! ```

#![deny(missing_docs)]

pub mod arena;
mod engine;
mod idmap;
mod rng;
pub mod sched;
mod time;

pub use arena::{EventArena, EventHandle};
pub use engine::{AsAny, Ctx, Node, NodeId, Sim, TimerId};
pub use idmap::IdMap;
pub use rng::{splitmix64, DetRng, LatencyDist};
pub use time::{SimDuration, SimTime};
