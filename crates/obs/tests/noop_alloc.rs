//! Disabled-handle guard: a disabled [`obs::Tracer`] (and disabled
//! metric handles) must cost zero heap allocations on the probe hot
//! path, so instrumentation can stay unconditionally compiled in.
//!
//! A counting global allocator makes the check direct: run the hot-path
//! operations and assert the allocation counter did not move. The
//! counts are per thread (`obs::prof::thread_alloc_counts`), so tests
//! running in parallel on other threads cannot leak into them.

use obs::prof::{thread_alloc_counts, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    thread_alloc_counts().0
}

#[test]
fn disabled_tracer_allocates_nothing() {
    let tracer = obs::Tracer::disabled();
    let cloned = tracer.clone(); // handles clone freely too
    let before = alloc_count();
    for pkt in 0..1000u64 {
        let trace = tracer.begin_trace();
        let root = tracer.start_span(trace, None, "probe", "app", 0);
        // &str attr: the String conversion must happen after the
        // disabled check, never on the disabled path.
        tracer.attr(root, "tool", "ping");
        tracer.attr(root, "probe", 42u32);
        tracer.bind_packet(pkt, obs::TraceCtx { trace, root });
        let _ = tracer.packet_ctx(pkt);
        cloned.span(trace, Some(root), "sdio_wake", "driver", 0, 10);
        tracer.rebind_packet(pkt, pkt + 1);
        tracer.end_span(root, 100);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "disabled tracer must not allocate on the hot path"
    );
}

#[test]
fn enabled_probe_allocation_cost_is_bounded() {
    // The enabled path does allocate (span records, index entries) but
    // the cost per probe must stay small and flat: this bound is the
    // allocation-side complement of the wall-clock budget tracked by
    // `repro bench-snapshot` (obs/tracer_enabled_probe).
    let tracer = obs::Tracer::new();
    // Warm up internal Vec/HashMap capacity so the bound reflects the
    // steady state, not growth doublings.
    for pkt in 0..64u64 {
        let trace = tracer.begin_trace();
        let root = tracer.start_span(trace, None, "probe", "app", 0);
        tracer.bind_packet(pkt, obs::TraceCtx { trace, root });
        tracer.span(trace, Some(root), "sdio_wake", "driver", 0, 10);
        tracer.end_span(root, 100);
    }
    let before = alloc_count();
    const PROBES: u64 = 256;
    for i in 0..PROBES {
        let pkt = 1000 + 2 * i;
        let trace = tracer.begin_trace();
        let root = tracer.start_span(trace, None, "probe", "app", 0);
        tracer.attr(root, "probe", i as u32);
        tracer.bind_packet(pkt, obs::TraceCtx { trace, root });
        let _ = tracer.packet_ctx(pkt);
        tracer.span(trace, Some(root), "kernel_tx", "kernel", 0, 10);
        tracer.span(trace, Some(root), "sdio_wake", "driver", 10, 50);
        tracer.rebind_packet(pkt, pkt + 1);
        tracer.end_span(root, 100);
    }
    let per_probe = (alloc_count() - before) / PROBES;
    assert!(
        per_probe <= 16,
        "enabled tracer allocation cost grew: {per_probe} allocations per 3-span probe"
    );
}

#[test]
fn disabled_metric_handles_allocate_nothing() {
    let reg = obs::Registry::disabled();
    let counter = reg.counter("x");
    let gauge = reg.gauge("y");
    let hist = reg.histogram_ms("z");
    let before = alloc_count();
    for i in 0..1000 {
        counter.inc();
        gauge.set(i);
        hist.observe(i as f64);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "disabled metric handles must not allocate"
    );
}
