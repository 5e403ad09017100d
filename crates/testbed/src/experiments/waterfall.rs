//! Per-probe causal waterfalls: where did *this* probe's `du − dn` go?
//!
//! The telemetry experiment cross-checks aggregate counters against the
//! classic breakdowns; this one goes one level deeper. With a
//! [`Tracer`] attached to the testbed, every probe yields a
//! span tree — runtime crossing, kernel, SDIO wake, PSM doze wake, AP
//! beacon buffering, the emulated link and server — whose gap-filled
//! leaves exactly partition the user-level RTT `du`. The reconciliation
//! tests assert that partition, and that the `sdio_wake` / `ap_buffer`
//! span totals equal the PR-1 histogram sums for the same run.

use measure::{PingApp, PingConfig};
use obs::{build_trace_tree, AttrValue, Registry, Snapshot, SpanNode, SpanRecord, Tracer};
use phone::{PhoneNode, RuntimeKind};
use simcore::{SimDuration, SimTime};

use crate::metrics::{breakdowns, ProbeBreakdown};
use crate::{addr, Testbed, TestbedConfig};

/// One probe's assembled waterfall.
pub struct ProbeWaterfall {
    /// Probe index.
    pub probe: u32,
    /// The classic multi-vantage breakdown for the same probe.
    pub breakdown: ProbeBreakdown,
    /// Gap-filled span tree rooted at the probe's `probe` span.
    pub tree: SpanNode,
}

/// The result of one traced session.
pub struct WaterfallRun {
    /// Completed probes, in probe order.
    pub waterfalls: Vec<ProbeWaterfall>,
    /// Every span the tracer recorded (including incomplete traces).
    pub spans: Vec<SpanRecord>,
    /// The telemetry snapshot of the same run, for reconciliation.
    pub snapshot: Snapshot,
}

impl WaterfallRun {
    /// Total duration of all spans named `name`, ms, and their count.
    pub fn span_total_ms(&self, name: &str) -> (f64, u64) {
        let mut sum = 0.0;
        let mut count = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(d) = s.duration_ns() {
                sum += d as f64 / 1e6;
                count += 1;
            }
        }
        (sum, count)
    }

    /// Render every probe's waterfall, headed by its breakdown numbers.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        for w in &self.waterfalls {
            let fmt = |v: Option<f64>| match v {
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "probe {}: du={} ms, dn={} ms, overhead={} ms\n",
                w.probe,
                fmt(w.breakdown.du),
                fmt(w.breakdown.dn),
                fmt(w.breakdown.total()),
            ));
            out.push_str(&obs::render_waterfall(&w.tree, width));
            out.push('\n');
        }
        out
    }
}

/// Run `k` slow pings (1 s interval) on a Nexus-5 testbed over a
/// `rtt_ms` path with both telemetry and tracing attached. The slow
/// cadence over a long path triggers every inflation source the paper
/// names — SDIO promotion on both crossings and PSM beacon buffering of
/// each response — so every waterfall shows the full anatomy of
/// `du − dn`.
pub fn run(k: u32, seed: u64, rtt_ms: u64, reg: &Registry, tracer: &Tracer) -> WaterfallRun {
    let horizon = SimTime::from_secs(u64::from(k) + 10);
    let mut tb = Testbed::build(TestbedConfig::new(seed, phone::nexus5(), rtt_ms));
    tb.sim.set_metrics(reg);
    tb.attach_metrics(reg);
    tb.attach_tracer(tracer);
    let idx = tb.install_app(
        Box::new(PingApp::new(PingConfig::new(
            addr::SERVER,
            k,
            SimDuration::from_secs(1),
        ))),
        RuntimeKind::Native,
    );
    tb.run_until(horizon);
    let index = tb.capture_index();
    let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
    let records = &phone_node.app::<PingApp>(idx).records;
    let bds = breakdowns(records, phone_node.ledger(), &index);

    let spans = tracer.spans();
    let mut waterfalls = Vec::new();
    for trace in tracer.trace_ids() {
        let Some(mut tree) = build_trace_tree(&spans, trace) else {
            continue;
        };
        if tree.span.end_ns.is_none() {
            continue; // the probe (or its reply) never completed
        }
        let Some(&AttrValue::Int(p)) = tree.span.attr("probe") else {
            continue;
        };
        let probe = p as u32;
        let Some(&breakdown) = bds.iter().find(|b| b.probe == probe) else {
            continue;
        };
        tree.fill_gaps();
        waterfalls.push(ProbeWaterfall {
            probe,
            breakdown,
            tree,
        });
    }
    waterfalls.sort_by_key(|w| w.probe);
    WaterfallRun {
        waterfalls,
        spans,
        snapshot: reg.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance check for the tracing layer, on the same seeded
    /// PSM+SDIO scenario the telemetry experiment uses: every completed
    /// probe's gap-filled leaves partition its `du` (within 1 µs of the
    /// record-derived value), and the `sdio_wake` / `ap_buffer` span
    /// totals equal the corresponding histogram sums.
    #[test]
    fn leaves_partition_du_and_span_totals_match_histograms() {
        let reg = Registry::new();
        let tracer = Tracer::new();
        let k = 20u32;
        let r = run(k, 11, 300, &reg, &tracer);
        assert_eq!(r.waterfalls.len(), k as usize);

        for w in &r.waterfalls {
            let root_ns = w.tree.duration_ns();
            // Leaves partition the root exactly: fill_gaps() inserts an
            // `(unattributed)` leaf for every uninstrumented interval,
            // and instrumented spans never overlap in this pipeline.
            assert_eq!(
                w.tree.leaf_sum_ns(),
                root_ns,
                "probe {}: leaves do not partition the root",
                w.probe
            );
            // And the root is the user-level RTT the tool recorded.
            let du = w.breakdown.du.expect("completed probe has du");
            let root_ms = root_ns as f64 / 1e6;
            assert!(
                (root_ms - du).abs() < 1e-3,
                "probe {}: root {root_ms} ms vs du {du} ms",
                w.probe
            );
            // This scenario dozes mid-RTT, so every probe pays both
            // promotions and the AP buffers every response.
            assert!(w.tree.named_leaf_ns("sdio_wake") > 0, "probe {}", w.probe);
            assert!(w.tree.named_leaf_ns("ap_buffer") > 0, "probe {}", w.probe);
        }

        // SDIO: one `sdio_wake` span per bus promotion, with the same
        // bounds the wake-latency histogram observed.
        let wake = r
            .snapshot
            .histogram("phone.sdio.wake_latency_ms")
            .expect("hist");
        let (wake_ms, wake_n) = r.span_total_ms("sdio_wake");
        assert_eq!(wake_n, wake.count());
        assert_eq!(wake_n, 2 * u64::from(k));
        assert!(
            (wake_ms - wake.sum()).abs() < 1e-6,
            "sdio_wake spans {wake_ms} ms vs histogram {} ms",
            wake.sum()
        );

        // PSM: one `ap_buffer` span per beacon-buffered response.
        let buf = r
            .snapshot
            .histogram("phy.ap.ps_buffer_wait_ms")
            .expect("hist");
        let (buf_ms, buf_n) = r.span_total_ms("ap_buffer");
        assert_eq!(buf_n, buf.count());
        assert_eq!(buf_n, u64::from(k));
        assert!(
            (buf_ms - buf.sum()).abs() < 1e-6,
            "ap_buffer spans {buf_ms} ms vs histogram {} ms",
            buf.sum()
        );
    }

    /// The rendered report is deterministic and names every layer.
    #[test]
    fn render_is_deterministic_and_complete() {
        let go = || {
            let reg = Registry::new();
            let tracer = Tracer::new();
            run(5, 11, 300, &reg, &tracer).render(40)
        };
        let report = go();
        assert_eq!(report, go());
        for name in [
            "runtime_tx",
            "kernel_tx",
            "sdio_wake",
            "bus_tx",
            "link",
            "server",
            "ap_buffer",
            "kernel_rx",
            "runtime_rx",
            "(unattributed)",
        ] {
            assert!(report.contains(name), "report missing span {name}");
        }
    }
}
