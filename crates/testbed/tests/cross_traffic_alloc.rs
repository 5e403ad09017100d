//! A congested WiFi testbed dispatches without touching the heap.
//!
//! Under the §4.3 cross traffic every contention round of the shared
//! medium, every AP forward and every load-server delivery runs on the
//! dispatch hot path. Once the testbed has warmed up, none of them may
//! allocate: this binary installs `obs::prof::CountingAlloc` and counts
//! this thread's allocations over a fixed window of engine steps.

use obs::prof::{thread_alloc_counts, CountingAlloc};
use simcore::SimTime;
use testbed::{Testbed, TestbedConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn cross_traffic_steady_state_allocates_nothing() {
    let mut cfg =
        TestbedConfig::new(5, phone::nexus5(), 50).with_cross_traffic(SimTime::from_secs(60));
    cfg.sniffers = 0;
    let mut tb = Testbed::build(cfg);
    tb.run_until(SimTime::from_secs(1));
    let (before, _) = thread_alloc_counts();
    for _ in 0..20_000 {
        assert!(tb.sim.step(), "the cross traffic ran dry");
    }
    let (after, _) = thread_alloc_counts();
    assert!(tb.sim.now() < SimTime::from_secs(60));
    assert_eq!(after - before, 0, "20 000 congested steps allocated");
}
