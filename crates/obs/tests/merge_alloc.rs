//! Merging a device's snapshot into a campaign snapshot clones only the
//! names it lacks: one whose names are all held merges without one
//! allocation, and a lacking name starts from the snapshot's state.
//! Every name here is owned, as a restored campaign's are, so a clone
//! would show. Allocations are counted per thread
//! (`obs::prof::thread_alloc_counts`), so parallel tests cannot leak in.

use obs::prof::{thread_alloc_counts, CountingAlloc};
use obs::{Hist, MetricName, Snapshot};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    thread_alloc_counts().0
}

/// Add one device's worth of telemetry to `s`: counters, a gauge and
/// histograms. `extra` adds names the plain device lacks.
fn record(s: &mut Snapshot, extra: bool) {
    let owned = |name: &str| MetricName::Owned(name.to_string());
    let hist = |values: &[f64]| {
        let mut h = Hist::default();
        values.iter().for_each(|&v| h.observe(v));
        h
    };
    s.add_counter(owned("phone.sdio.wakeups"), 7);
    s.add_counter(owned("phy.medium.frames"), 120);
    s.add_gauge(owned("phy.ap.dozing"), -2);
    let wake = hist(&[0.3, 4.0, 11.0, 11.5, 260.0]);
    s.merge_histogram(owned("phone.sdio.wake_latency_ms"), &wake);
    let occupancy = hist(&[42.0]);
    s.merge_histogram(owned("netem.link.occupancy_us"), &occupancy);
    if extra {
        s.add_counter(owned("measure.ping.timeouts"), 1);
        s.add_gauge(owned("phy.sta.queue"), 3);
        s.merge_histogram(owned("phone.kernel.tx_ms"), &hist(&[0.7]));
    }
}

fn device(extra: bool) -> Snapshot {
    let mut s = Snapshot::default();
    record(&mut s, extra);
    s
}

#[test]
fn merging_held_names_allocates_nothing() {
    // The second device brings names the first lacks: they start from
    // its state, buckets and sketch included.
    let mut campaign = Snapshot::default();
    let mut direct = Snapshot::default();
    for extra in [false, true] {
        campaign.merge(&device(extra));
        record(&mut direct, extra);
    }
    assert!(campaign
        .counters
        .iter()
        .all(|(name, _)| matches!(name, MetricName::Owned(_))));
    let snap = device(true);
    let before = alloc_count();
    for _ in 0..100 {
        campaign.merge(&snap);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "merging a snapshot whose names are all held must not allocate"
    );
    // The merged state is the one a snapshot that saw every
    // observation itself holds.
    for _ in 0..100 {
        record(&mut direct, true);
    }
    assert_eq!(
        campaign.state_json().to_string(),
        direct.state_json().to_string()
    );
}
