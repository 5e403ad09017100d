//! The engine's per-layer dispatch ledger on profiled testbed runs.
//!
//! With an enabled profiler installed, every `run_until` records one
//! `sim.dispatch` phase under the caller's open phase whose calls are
//! the events dispatched, split into one child per Fig.-1 layer.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use measure::{Baseline, BaselineApp};
use netem::FaultPlan;
use obs::{ProfSnapshot, Profiler};
use phone::RuntimeKind;
use phy80211::MediumNode;
use simcore::{SimDuration, SimTime};
use sniffer::CaptureNode;
use testbed::{addr, CellTestbed, CellTestbedConfig, Testbed, TestbedConfig};
use wire::FrameKind;

/// `sim.dispatch` calls and each layer child's `(name, calls)`.
fn dispatch_rows(snap: &ProfSnapshot) -> (u64, Vec<(&'static str, u64)>) {
    let mut events = 0;
    let mut layers: Vec<(&'static str, u64)> = Vec::new();
    for t in &snap.threads {
        for (i, n) in t.nodes.iter().enumerate() {
            if n.name != "sim.dispatch" {
                continue;
            }
            events += n.calls;
            for child in t.nodes.iter().filter(|c| c.parent == Some(i)) {
                match layers.iter_mut().find(|(name, _)| *name == child.name) {
                    Some((_, calls)) => *calls += child.calls,
                    None => layers.push((child.name, child.calls)),
                }
            }
        }
    }
    (events, layers)
}

fn ping(k: u32) -> Box<BaselineApp> {
    Box::new(BaselineApp::new(
        Baseline::Ping,
        addr::SERVER,
        k,
        SimDuration::from_millis(200),
    ))
}

/// A profiled WiFi testbed run; returns the profile, the events
/// dispatched inside the `des` phase and the testbed.
fn profiled_wifi(cfg: TestbedConfig, until: SimTime) -> (ProfSnapshot, u64, Testbed) {
    let prof = Profiler::new();
    let mut tb = Testbed::build(cfg);
    tb.sim.set_profiler(&prof);
    tb.install_app(ping(5), RuntimeKind::Native);
    let before = tb.sim.events_processed();
    {
        let _des = prof.phase("des");
        tb.run_until(SimTime::from_millis(700));
        tb.run_until(until);
    }
    let dispatched = tb.sim.events_processed() - before;
    (prof.snapshot(), dispatched, tb)
}

#[test]
fn dispatch_calls_equal_events_dispatched() {
    let cfg = TestbedConfig::new(3, phone::nexus5(), 40);
    let (snap, dispatched, _) = profiled_wifi(cfg, SimTime::from_secs(2));
    let (events, layers) = dispatch_rows(&snap);
    assert!(dispatched > 100, "too few events: {dispatched}");
    assert_eq!(events, dispatched);
    assert_eq!(layers.iter().map(|(_, c)| c).sum::<u64>(), dispatched);
    // Both runs fold into the one node under the open phase.
    assert!(snap.folded().contains("des;sim.dispatch;phy.medium"));
}

#[test]
fn the_sniffers_cost_one_delivery_per_frame() {
    // Three vantage points, one capture node: the sniffer layer is
    // called once for each frame the medium delivers.
    let cfg = TestbedConfig::new(3, phone::nexus5(), 40);
    assert_eq!(cfg.sniffers, 3);
    let (snap, _, tb) = profiled_wifi(cfg, SimTime::from_secs(2));
    let (_, layers) = dispatch_rows(&snap);
    let sniffer = layers.iter().find(|(name, _)| *name == "sniffer");
    let delivered = tb.sim.node::<MediumNode>(tb.medium).stats.delivered;
    assert!(delivered > 10, "too few frames: {delivered}");
    assert_eq!(sniffer.map(|&(_, calls)| calls), Some(delivered));
}

#[test]
fn frames_the_fault_plan_eats_are_not_delivered() {
    // The lossy stratum's post-MAC plan eats data frames after their
    // exchange completed: the capture never hears them, and the medium
    // counts them as dropped by the fault, not as delivered.
    let mut cfg = TestbedConfig::new(31, phone::nexus5(), 50)
        .with_wifi_faults(FaultPlan::gilbert_elliott(0.08, 3.0).with_seed(31));
    cfg.sniffer_loss = 0.0;
    let prof = Profiler::new();
    let mut tb = Testbed::build(cfg);
    tb.sim.set_profiler(&prof);
    tb.install_app(
        Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 20))),
        RuntimeKind::Native,
    );
    {
        let _des = prof.phase("des");
        tb.run_until(SimTime::from_secs(5));
    }
    let (_, layers) = dispatch_rows(&prof.snapshot());
    let deliveries = layers.iter().find(|(name, _)| *name == "sniffer");
    let medium = tb.sim.node::<MediumNode>(tb.medium);
    let st = &medium.stats;
    let fault = medium.fault_stats().expect("a plan is installed");
    assert!(st.dropped_fault > 0, "the plan ate no frame");
    assert_eq!(fault.duplicated, 0);
    // The lossless capture is delivered each delivered frame once.
    assert_eq!(deliveries.map(|&(_, calls)| calls), Some(st.delivered));
    let captures = tb.sim.node::<CaptureNode>(tb.capture).index().captures();
    assert_eq!(captures.len() as u64, st.delivered);
    // Every completed exchange is a management frame, which the plan
    // exempts, or a data frame offered to the plan.
    let management = captures
        .iter()
        .filter(|c| !matches!(c.frame.kind, FrameKind::Data { .. }))
        .count() as u64;
    assert_eq!(st.delivered + st.dropped_fault, management + fault.offered);
}

#[test]
fn wifi_cross_traffic_reports_every_wifi_layer() {
    let cfg = TestbedConfig::new(4, phone::nexus5(), 40).with_cross_traffic(SimTime::from_secs(2));
    let (snap, _, _) = profiled_wifi(cfg, SimTime::from_secs(2));
    let (_, layers) = dispatch_rows(&snap);
    for want in [
        "phone",
        "phy.sta",
        "phy.medium",
        "phy.ap",
        "netem.switch",
        "netem.link",
        "netem.server",
        "netem.load",
        "sniffer",
    ] {
        assert!(
            layers
                .iter()
                .any(|(name, calls)| *name == want && *calls > 0),
            "no {want} row in {layers:?}"
        );
    }
}

#[test]
fn cellular_testbed_reports_cell() {
    let cfg = CellTestbedConfig::lte(6, phone::nexus5(), 40);
    let prof = Profiler::new();
    let mut tb = CellTestbed::build(cfg);
    tb.sim.set_profiler(&prof);
    tb.install_app(
        Box::new(BaselineApp::new(
            Baseline::Ping,
            tb.server_ip(),
            3,
            SimDuration::from_millis(500),
        )),
        RuntimeKind::Native,
    );
    tb.run_until(SimTime::from_secs(3));
    let (events, layers) = dispatch_rows(&prof.snapshot());
    assert_eq!(events, tb.sim.events_processed());
    for want in ["cell", "phone", "netem.link", "netem.server"] {
        assert!(
            layers.iter().any(|(name, _)| *name == want),
            "no {want} row in {layers:?}"
        );
    }
}
