//! A measurement session is final when its tool reports `finished_at`:
//! running on to the horizon changes neither the tool's records nor the
//! per-probe breakdowns joined from the phone ledger and the capture.
//! That is what lets a fleet device's simulation stop at its tool's
//! finish instead of at the campaign horizon.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use measure::{Baseline, BaselineApp, RecordSet, RttRecord};
use netem::FaultPlan;
use phone::{PhoneNode, RuntimeKind};
use simcore::{NodeId, Sim, SimDuration, SimTime};
use sniffer::{CaptureIndex, CaptureNode};
use testbed::{
    addr, breakdowns, CellTestbed, CellTestbedConfig, ProbeBreakdown, Testbed, TestbedConfig,
};
use wire::Msg;

/// The fleet's default horizon.
const HORIZON: SimTime = SimTime::from_secs(12);
const K: u32 = 6;

#[derive(Clone, Copy, Debug)]
enum Tool {
    AcuteMon,
    /// Ping at its default 1 s interval, as the fleet's sparse-ping
    /// strata run it.
    Ping,
}

fn install(phone: &mut PhoneNode, tool: Tool, am: AcuteMonConfig) -> usize {
    match tool {
        Tool::AcuteMon => phone.install_app(Box::new(AcuteMonApp::new(am)), RuntimeKind::Native),
        Tool::Ping => {
            let second = SimDuration::from_secs(1);
            let ping = BaselineApp::new(Baseline::Ping, am.targets[0], am.k, second);
            phone.install_app(Box::new(ping), RuntimeKind::Native)
        }
    }
}

/// The tool's records and their breakdowns. A cellular testbed has no
/// `capture`, and its breakdowns then carry no `dn`.
fn session(
    sim: &Sim<Msg>,
    phone: NodeId,
    capture: Option<NodeId>,
    tool: Tool,
    app: usize,
) -> (Vec<RttRecord>, Vec<ProbeBreakdown>) {
    let phone = sim.node::<PhoneNode>(phone);
    let records = match tool {
        Tool::AcuteMon => phone.app::<AcuteMonApp>(app).records.clone(),
        Tool::Ping => phone.app::<BaselineApp>(app).records.clone(),
    };
    let none = CaptureIndex::default();
    let index = capture.map_or(&none, |c| sim.node::<CaptureNode>(c).index());
    let bds = breakdowns(&records, phone.ledger(), index);
    (records, bds)
}

/// Run until the tool finishes, keep its session, run on to the
/// horizon, and assert that the session did not change. Returns the
/// records.
fn assert_final_at_finish(
    sim: &mut Sim<Msg>,
    phone: NodeId,
    capture: Option<NodeId>,
    tool: Tool,
    app: usize,
) -> Vec<RttRecord> {
    let stopped = sim.run_until_or(HORIZON, phone, |sim| {
        sim.node::<PhoneNode>(phone).finished_at(app).is_some()
    });
    assert!(stopped, "{tool:?} did not finish by the horizon");
    let at_finish = session(sim, phone, capture, tool, app);
    let events = sim.events_processed();
    sim.run_until(HORIZON);
    assert!(
        sim.events_processed() > events,
        "nothing ran after the finish"
    );
    assert_eq!(session(sim, phone, capture, tool, app), at_finish);
    at_finish.0
}

/// `assert_final_at_finish` on a WiFi testbed with three lossy sniffers.
fn wifi(cfg: TestbedConfig, tool: Tool, am: AcuteMonConfig) -> Vec<RttRecord> {
    let mut tb = Testbed::build(cfg);
    let app = install(tb.sim.node_mut(tb.phone), tool, am);
    let capture = Some(tb.capture);
    let records = assert_final_at_finish(&mut tb.sim, tb.phone, capture, tool, app);
    let bds = session(&tb.sim, tb.phone, capture, tool, app).1;
    assert!(
        bds.iter().any(|b| b.dn.is_some()),
        "the sniffers saw no probe"
    );
    records
}

#[test]
fn acutemon_session_is_final_at_its_finish_on_a_clean_wlan() {
    let cfg = TestbedConfig::new(2016, phone::nexus5(), 50);
    let records = wifi(cfg, Tool::AcuteMon, AcuteMonConfig::new(addr::SERVER, K));
    assert_eq!(records.completion(), 1.0);
}

#[test]
fn acutemon_session_is_final_at_its_finish_on_a_lossy_wlan() {
    // As the fleet's lossy stratum runs it: bursty loss on the medium,
    // bounded retries with a short timeout.
    let plan = FaultPlan::gilbert_elliott(0.08, 3.0).with_seed(7);
    let cfg = TestbedConfig::new(31, phone::nexus5(), 50).with_wifi_faults(plan);
    let mut am = AcuteMonConfig::new(addr::SERVER, 20)
        .with_retries(3)
        .with_retry_backoff(SimDuration::from_millis(30));
    am.probe_timeout = SimDuration::from_millis(300);
    let records = wifi(cfg, Tool::AcuteMon, am);
    assert!(records.total_retries() > 0, "no probe needed a retry");
}

#[test]
fn acutemon_session_is_final_at_its_finish_under_cross_traffic() {
    let cfg = TestbedConfig::new(5, phone::nexus5(), 50).with_cross_traffic(HORIZON);
    let records = wifi(cfg, Tool::AcuteMon, AcuteMonConfig::new(addr::SERVER, K));
    assert_eq!(records.completion(), 1.0);
}

#[test]
fn ping_session_with_a_lost_probe_is_final_at_its_deadline() {
    // An outage on the server link swallows probe 1's request.
    let outage =
        FaultPlan::none().with_flap(SimTime::from_millis(900), SimTime::from_millis(1_100));
    let cfg = TestbedConfig::new(9, phone::nexus5(), 50).with_server_link_faults(outage);
    let records = wifi(cfg, Tool::Ping, AcuteMonConfig::new(addr::SERVER, K));
    let lost: Vec<u32> = records
        .iter()
        .filter(|r| !r.completed())
        .map(|r| r.probe)
        .collect();
    assert_eq!(lost, [1]);
}

/// `assert_final_at_finish` on a cellular testbed (no sniffers).
fn cellular(cfg: CellTestbedConfig, tool: Tool) {
    let am = cfg.acutemon_profile(K);
    let mut tb = CellTestbed::build(cfg);
    let app = install(tb.sim.node_mut(tb.phone), tool, am);
    let records = assert_final_at_finish(&mut tb.sim, tb.phone, None, tool, app);
    assert_eq!(records.completion(), 1.0, "{tool:?}");
}

#[test]
fn sessions_are_final_at_their_finish_on_lte() {
    for tool in [Tool::AcuteMon, Tool::Ping] {
        cellular(CellTestbedConfig::lte(11, phone::nexus5(), 40), tool);
    }
}

#[test]
fn sessions_are_final_at_their_finish_on_umts() {
    for tool in [Tool::AcuteMon, Tool::Ping] {
        cellular(CellTestbedConfig::umts(13, phone::nexus5(), 40), tool);
    }
}
