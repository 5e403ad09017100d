//! Exporting a device's counts into a snapshot that already holds its
//! names allocates nothing: the layers write counters, gauges and
//! histograms under `&'static str` names, merge the histograms they
//! keep by reference and observe straight into held ones, so a campaign
//! worker folds device after device into one snapshot without a heap
//! call. Allocations are counted per thread
//! (`obs::prof::thread_alloc_counts`), so parallel tests cannot leak in.

use obs::prof::{thread_alloc_counts, CountingAlloc};
use obs::{Hist, Snapshot};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    thread_alloc_counts().0
}

/// What one device's layers keep: a bus wake histogram, and the probe
/// RTTs its tool recorded.
struct Device {
    wake_latency_ms: Hist,
    rtts_ms: Vec<f64>,
}

/// One device's export, in the shape of the layer exports: counters
/// and a gauge by static name, a kept histogram merged by reference,
/// and one built from records observed straight into the held one.
fn export(d: &Device, out: &mut Snapshot) {
    out.add_counter("phone.sdio.wakeups", 7);
    out.add_counter("phy.medium.frames", 120);
    out.add_counter("netem.link.server.forwarded", 12);
    out.add_gauge("netem.link.server.occupancy_us", 0);
    out.merge_histogram("phone.sdio.wake_latency_ms", &d.wake_latency_ms);
    let rtt_ms = out.histogram_mut("acutemon.rtt_ms");
    for &v in &d.rtts_ms {
        rtt_ms.observe(v);
    }
    out.add_counter("acutemon.received", d.rtts_ms.len() as u64);
}

#[test]
fn exporting_held_names_allocates_nothing() {
    let mut wake_latency_ms = Hist::default();
    for v in [0.3, 4.0, 11.0, 11.5, 260.0] {
        wake_latency_ms.observe(v);
    }
    let device = Device {
        wake_latency_ms,
        rtts_ms: vec![50.4, 52.1, 61.0],
    };
    // The first device brings every name in.
    let mut worker = Snapshot::default();
    export(&device, &mut worker);

    let before = alloc_count();
    for _ in 0..100 {
        export(&device, &mut worker);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "exporting into a snapshot that holds every name must not allocate"
    );
    assert_eq!(worker.counter("phone.sdio.wakeups"), Some(7 * 101));
    assert_eq!(
        worker.histogram("acutemon.rtt_ms").unwrap().count(),
        3 * 101
    );

    // The same counts as a snapshot per device merged in, as the
    // engine folded them before.
    let mut merged = Snapshot::default();
    for _ in 0..101 {
        let mut one = Snapshot::default();
        export(&device, &mut one);
        merged.merge(&one);
    }
    assert_eq!(
        worker.state_json().to_string(),
        merged.state_json().to_string()
    );
}
