//! Folding a device's snapshot into a campaign registry looks each name
//! up before it clones it. A snapshot whose names are all held merges
//! without one allocation (cloning every name for `BTreeMap::entry`
//! cost one per name), and a name the registry lacks starts from the
//! snapshot's state. The counts are per thread
//! (`obs::prof::thread_alloc_counts`), so tests running in parallel on
//! other threads cannot leak into them.

use obs::prof::{thread_alloc_counts, CountingAlloc};
use obs::Registry;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    thread_alloc_counts().0
}

/// One device's worth of telemetry: counters, a gauge and histograms
/// with their own bounds. `extra` adds names the plain device lacks.
fn record(r: &Registry, extra: bool) {
    r.counter("phone.sdio.wakeups").add(7);
    r.counter("phy.medium.frames").add(120);
    r.gauge("phy.ap.dozing").sub(2);
    let wake = r.histogram_ms("phone.sdio.wake_latency_ms");
    for v in [0.3, 4.0, 11.0, 11.5, 260.0] {
        wake.observe(v);
    }
    r.histogram("netem.link.occupancy_us", &[10.0, 100.0, 1000.0])
        .observe(42.0);
    if extra {
        r.counter("measure.ping.timeouts").inc();
        r.gauge("phy.sta.queue").add(3);
        r.histogram_ms("phone.kernel.tx_ms").observe(0.7);
    }
}

fn device(extra: bool) -> Registry {
    let r = Registry::new();
    record(&r, extra);
    r
}

#[test]
fn merging_held_names_allocates_nothing() {
    // The second device brings names the first lacks: they start from
    // its state, bounds and sketch included.
    let campaign = Registry::new();
    let direct = Registry::new();
    for extra in [false, true] {
        campaign.merge_snapshot(&device(extra).snapshot());
        record(&direct, extra);
    }
    let snap = device(true).snapshot();
    let before = alloc_count();
    for _ in 0..100 {
        campaign.merge_snapshot(&snap);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "merging a snapshot whose names are all held must not allocate"
    );
    // The merged state is the one a registry that saw every
    // observation itself holds.
    for _ in 0..100 {
        record(&direct, true);
    }
    assert_eq!(
        campaign.snapshot().state_json().to_string(),
        direct.snapshot().state_json().to_string()
    );
}
