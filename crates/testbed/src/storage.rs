//! Storage that outlives a device: what one testbed grew, handed to the
//! next testbed built on the same thread.

use phone::PhoneTables;
use simcore::Sim;
use sniffer::CaptureIndex;
use wire::Msg;

/// The containers a testbed's device grows while it runs: the
/// simulator's node list and event queue, the phone's tables
/// ([`PhoneTables`]) and the capture index. A testbed built on it
/// ([`Testbed::build_on`](crate::Testbed::build_on),
/// [`CellTestbed::build_on`](crate::CellTestbed::build_on)) takes them,
/// and `recycle` hands them back emptied, nodes dropped, with their
/// capacity. A thread that runs device after device on one storage
/// therefore grows them only past the largest device it has run. An
/// empty storage allocates nothing.
pub struct DeviceStorage {
    /// As `Sim::new(0)` but for capacity: no nodes, no events.
    sim: Sim<Msg>,
    pub(crate) phone: PhoneTables,
    pub(crate) capture: CaptureIndex,
}

impl Default for DeviceStorage {
    fn default() -> Self {
        DeviceStorage {
            sim: Sim::new(0),
            phone: PhoneTables::default(),
            capture: CaptureIndex::default(),
        }
    }
}

impl DeviceStorage {
    /// The simulator for a device seeded `seed`, on this storage's node
    /// list and queue.
    pub(crate) fn take_sim(&mut self, seed: u64) -> Sim<Msg> {
        let mut sim = std::mem::replace(&mut self.sim, Sim::new(0));
        sim.reset(seed);
        sim
    }

    /// Take back a device's simulator, dropping its nodes and events.
    pub(crate) fn put_sim(&mut self, mut sim: Sim<Msg>) {
        sim.reset(0);
        self.sim = sim;
    }
}
