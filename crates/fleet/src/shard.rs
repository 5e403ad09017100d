//! Per-device simulation shards.
//!
//! One function, `fold_device`, builds the full testbed for one device
//! of a [`CampaignSpec`], runs it until its measurement tool finishes
//! (at most [`CampaignSpec::horizon`]), and folds what it measured into
//! a target: an engine worker's [`Collector`](crate::Collector)
//! directly, or, through [`run_device`], a fresh [`DevicePartial`] of
//! three mergeable [`QuantileSketch`]es (`du`, `dn`, overhead) and an
//! [`obs`] snapshot. No raw sample vectors leave the shard — campaign
//! memory is independent of the probe count.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::QuantileSketch;
use measure::{Baseline, BaselineApp, RecordSet, RttRecord};
use obs::Snapshot;
use phone::{PhoneNode, RuntimeKind};
use simcore::{LatencyDist, SimDuration, SimTime};
use testbed::{
    addr, breakdowns, CellTestbed, CellTestbedConfig, DeviceStorage, Testbed, TestbedConfig,
};

use crate::spec::{CampaignSpec, Radio, Tool};

/// The result of one device: counts and sketches only, never raw
/// samples. [`Collector::absorb`](crate::Collector::absorb) folds it.
#[derive(Debug, Clone)]
pub struct DevicePartial {
    /// Device index within the campaign.
    pub index: u64,
    /// Stratum index within the spec.
    pub class: usize,
    /// Probes sent.
    pub probes_sent: u64,
    /// Probes that completed (a `du` was measured).
    pub probes_completed: u64,
    /// App-level retries spent.
    pub retries: u64,
    /// User-level RTT sketch (timed-out probes recorded as censored).
    pub du: QuantileSketch,
    /// Network-level RTT sketch (sniffer vantage; WiFi strata only).
    pub dn: QuantileSketch,
    /// Per-probe overhead `du − dn` sketch (WiFi strata only).
    pub overhead: QuantileSketch,
    /// What the device's layers and tool counted, exported after its
    /// run.
    pub obs: obs::Snapshot,
}

/// Where [`fold_device`] writes one device's results. Each probe value
/// is `Some` when measured and `None` when censored (lost, or missed by
/// the sniffer).
pub(crate) trait FoldTarget {
    /// The snapshot the device's layers and tool export into.
    fn obs(&mut self) -> &mut Snapshot;
    /// One device of stratum `class`: the probes it sent and the
    /// retries it spent.
    fn device(&mut self, class: usize, probes_sent: u64, retries: u64);
    /// One probe's user-level RTT.
    fn du(&mut self, class: usize, du: Option<f64>);
    /// One probe's network-level RTT.
    fn dn(&mut self, class: usize, dn: Option<f64>);
    /// One probe's overhead `du − dn`.
    fn overhead(&mut self, class: usize, overhead: Option<f64>);
}

impl FoldTarget for DevicePartial {
    fn obs(&mut self) -> &mut Snapshot {
        &mut self.obs
    }

    fn device(&mut self, _class: usize, probes_sent: u64, retries: u64) {
        self.probes_sent += probes_sent;
        self.retries += retries;
    }

    fn du(&mut self, _class: usize, du: Option<f64>) {
        self.probes_completed += u64::from(du.is_some());
        self.du.push(du);
    }

    fn dn(&mut self, _class: usize, dn: Option<f64>) {
        self.dn.push(dn);
    }

    fn overhead(&mut self, _class: usize, overhead: Option<f64>) {
        self.overhead.push(overhead);
    }
}

fn harvest(
    into: &mut impl FoldTarget,
    class: usize,
    records: &[RttRecord],
    breakdown: Option<&[testbed::ProbeBreakdown]>,
) {
    into.device(class, records.len() as u64, records.total_retries());
    for r in records {
        into.du(class, r.du_ms());
    }
    for b in breakdown.unwrap_or_default() {
        if let Some(dn) = b.dn {
            into.dn(class, Some(dn));
            if let Some(du) = b.du {
                into.overhead(class, Some(du - dn));
            }
        } else if b.du.is_some() {
            // The sniffer missed this probe: the overhead is
            // unidentifiable, not zero.
            into.dn(class, None);
            into.overhead(class, None);
        }
    }
}

/// Run device `index` of `spec` until its tool finishes its session
/// and return its partial.
/// Pure in `(spec, index)`: the same pair always produces the same
/// partial, on any worker thread.
pub fn run_device(spec: &CampaignSpec, index: u64) -> DevicePartial {
    run_device_prof(spec, index, &obs::Profiler::disabled())
}

/// [`run_device`] with self-profiling: wall-clock cost splits into
/// `setup` (testbed + app construction), `des` (the discrete-event run,
/// under which simcore records its per-layer `sim.dispatch` totals),
/// `fold` (exports, record harvest) and `teardown` (the testbed's nodes
/// dropped and its containers emptied). The partial returned is
/// byte-identical whether `prof` is enabled or disabled — profiling
/// observes the host, never the simulation.
///
/// The exported counts cover the model layers and the tool, never the
/// engine's `sim.*` metrics: everything in the snapshot is a pure
/// function of the device seed and the modelled behaviour.
pub fn run_device_prof(spec: &CampaignSpec, index: u64, prof: &obs::Profiler) -> DevicePartial {
    let class = spec.class_of(index);
    let mut partial = DevicePartial {
        index,
        class,
        probes_sent: 0,
        probes_completed: 0,
        retries: 0,
        du: QuantileSketch::new(),
        dn: QuantileSketch::new(),
        overhead: QuantileSketch::new(),
        obs: obs::Snapshot::default(),
    };
    fold_device(
        spec,
        index,
        prof,
        &mut partial,
        &mut DeviceStorage::default(),
    );
    partial
}

/// Run device `index` of `spec` on `storage` and fold its results into
/// `into`: the layers' and the tool's counts into its snapshot, and
/// each probe into its stratum's sketches. Returns the device's
/// stratum. The one device path: [`run_device_prof`] folds into a fresh
/// partial on a fresh storage, an engine worker into its segment's
/// collector on the storage its earlier devices left. The testbed is
/// torn down, and its containers handed back to `storage` emptied,
/// before this returns.
pub(crate) fn fold_device(
    spec: &CampaignSpec,
    index: u64,
    prof: &obs::Profiler,
    into: &mut impl FoldTarget,
    storage: &mut DeviceStorage,
) -> usize {
    let class_idx = spec.class_of(index);
    let class = &spec.classes[class_idx];
    let seed = spec.device_seed(index);
    let k = spec.probes_per_device;
    let horizon = SimTime::ZERO + spec.horizon;
    let setup = prof.phase("setup");

    let mut profile = class.profile.clone();
    if let Some(ticks) = class.sdio_idletime {
        profile.bus.idletime = ticks;
    }
    if let Some(tip) = class.tip_ms {
        profile.psm_timeout = LatencyDist::fixed(tip);
    }
    // Population knobs drawn once per device, all pure in (spec, index):
    // its path RTT from the stratum's distribution, whether its
    // time-of-day puts it in the diurnal busy window, and its §4.2.2
    // (dpre, db) calibration grid point.
    let path_rtt_ms = spec.path_rtt_of(index);
    let cross_traffic = spec.cross_traffic_of(index);
    let calibration = spec.calibration_of(index);
    let calibrate = |am: &mut AcuteMonConfig| {
        if let Some((dpre_ms, db_ms)) = calibration {
            am.dpre = SimDuration::from_ms_f64(dpre_ms);
            am.db = SimDuration::from_ms_f64(db_ms);
        }
    };
    match class.radio {
        Radio::Wifi => {
            let mut cfg = TestbedConfig::new(seed, profile, path_rtt_ms);
            // Lossless sniffers: full dn coverage, one capture delivery
            // per frame and no loss draws.
            cfg.sniffer_loss = 0.0;
            // Campaign analysis only ever queries probe packets, so
            // the capture skips cross-traffic data frames — on a
            // congested device that is one delivery per blaster
            // datagram it no longer pays for.
            cfg.sniffer_capture_cross = false;
            cfg.listen_interval_override = class.listen_interval;
            if let Some(ms) = class.beacon_interval_ms {
                cfg = cfg.with_beacon_interval(SimDuration::from_ms_f64(ms));
            }
            if let Some(plan) = class.faults.clone() {
                cfg = cfg.with_wifi_faults(plan.with_seed(spec.fault_seed(index)));
            }
            if cross_traffic {
                cfg.cross_traffic = true;
                // Busy the whole session: the schedule models *which*
                // devices contend, not an in-session on/off pattern.
                cfg.cross_stop = horizon;
            }
            let mut tb = Testbed::build_on(cfg, storage);
            tb.sim.set_profiler(prof);
            let mut am = AcuteMonConfig::new(addr::SERVER, k);
            calibrate(&mut am);
            if class.faults.is_some() {
                // Lossy stratum: bounded retries with a short timeout,
                // as the fault sweep does.
                am = am
                    .with_retries(3)
                    .with_retry_backoff(SimDuration::from_millis(30));
                am.probe_timeout = SimDuration::from_millis(300);
            }
            let phone = tb.sim.node_mut::<PhoneNode>(tb.phone);
            let app = install_tool(phone, class.tool, am);
            drop(setup);
            {
                let _des = prof.phase("des");
                let phone = tb.phone;
                tb.sim.run_until_or(horizon, phone, |sim| {
                    sim.node::<PhoneNode>(phone).finished_at(app).is_some()
                });
            }
            {
                let _fold = prof.phase("fold");
                tb.export(into.obs());
                let phone = tb.phone_node();
                export_tool(phone, class.tool, app, into.obs());
                let records = tool_records(phone, class.tool, app);
                let bds = breakdowns(records, phone.ledger(), tb.capture_index());
                harvest(into, class_idx, records, Some(&bds));
            }
            let _teardown = prof.phase("teardown");
            tb.recycle(storage);
        }
        Radio::Lte | Radio::Umts => {
            let mut cfg = match class.radio {
                Radio::Lte => CellTestbedConfig::lte(seed, profile, path_rtt_ms),
                _ => CellTestbedConfig::umts(seed, profile, path_rtt_ms),
            };
            if let Some(plan) = class.faults.clone() {
                cfg = cfg.with_bearer_faults(plan.with_seed(spec.fault_seed(index)));
            }
            let mut am = cfg.acutemon_profile(k);
            calibrate(&mut am);
            let mut tb = CellTestbed::build_on(cfg, storage);
            tb.sim.set_profiler(prof);
            let phone = tb.sim.node_mut::<PhoneNode>(tb.phone);
            let app = install_tool(phone, class.tool, am);
            drop(setup);
            {
                let _des = prof.phase("des");
                let phone = tb.phone;
                tb.sim.run_until_or(horizon, phone, |sim| {
                    sim.node::<PhoneNode>(phone).finished_at(app).is_some()
                });
            }
            {
                let _fold = prof.phase("fold");
                let phone = tb.sim.node::<PhoneNode>(tb.phone);
                export_tool(phone, class.tool, app, into.obs());
                // No sniffers on the bearer: dn/overhead stay empty.
                harvest(into, class_idx, tool_records(phone, class.tool, app), None);
            }
            let _teardown = prof.phase("teardown");
            tb.recycle(storage);
        }
    }
    class_idx
}

/// Install the stratum's measurement tool on `phone`; returns the app
/// index. Sparse ping probes AcuteMon's target `k` times at ping's
/// default 1 s interval.
fn install_tool(phone: &mut PhoneNode, tool: Tool, am: AcuteMonConfig) -> usize {
    match tool {
        Tool::AcuteMon => phone.install_app(Box::new(AcuteMonApp::new(am)), RuntimeKind::Native),
        Tool::SparsePing => {
            let second = SimDuration::from_secs(1);
            let ping = BaselineApp::new(Baseline::Ping, am.targets[0], am.k, second);
            phone.install_app(Box::new(ping), RuntimeKind::Native)
        }
    }
}

/// Write what the tool at `app` counted into `out`.
fn export_tool(phone: &PhoneNode, tool: Tool, app: usize, out: &mut Snapshot) {
    match tool {
        Tool::AcuteMon => phone.app::<AcuteMonApp>(app).export(out),
        Tool::SparsePing => phone.app::<BaselineApp>(app).export(out),
    }
}

/// The probe records the tool at `app` collected.
fn tool_records(phone: &PhoneNode, tool: Tool, app: usize) -> &[RttRecord] {
    match tool {
        Tool::AcuteMon => &phone.app::<AcuteMonApp>(app).records,
        Tool::SparsePing => &phone.app::<BaselineApp>(app).records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::ToJson;

    #[test]
    fn shard_is_deterministic() {
        let spec = CampaignSpec::heterogeneous(42, 16).with_probes(3);
        let a = run_device(&spec, 3);
        let b = run_device(&spec, 3);
        assert_eq!(a.probes_sent, b.probes_sent);
        assert_eq!(a.du.quantile(0.5), b.du.quantile(0.5));
        assert_eq!(a.du.count(), b.du.count());
        assert_eq!(
            a.obs.to_json().to_string_pretty(),
            b.obs.to_json().to_string_pretty()
        );
    }

    #[test]
    fn wifi_shard_measures_du_and_dn() {
        let spec = CampaignSpec::heterogeneous(2016, 64).with_probes(4);
        // Find an AcuteMon WiFi device.
        let idx = (0..64)
            .find(|&i| {
                let c = &spec.classes[spec.class_of(i)];
                c.radio == Radio::Wifi && c.tool == Tool::AcuteMon && c.faults.is_none()
            })
            .expect("population has AcuteMon WiFi devices");
        let p = run_device(&spec, idx);
        assert_eq!(p.probes_sent, 4);
        assert_eq!(p.probes_completed, 4);
        assert!(p.dn.count() > 0, "sniffer saw nothing");
        assert!(p.overhead.count() > 0);
        // AcuteMon on a 50 ms path: du stays close to dn.
        let med = p.overhead.median().expect("identifiable overhead");
        assert!(med < 20.0, "overhead median {med}");
        assert!(!p.obs.is_empty(), "telemetry snapshot empty");
    }

    #[test]
    fn cellular_shard_has_no_dn() {
        let spec = CampaignSpec::heterogeneous(2016, 64).with_probes(3);
        let idx = (0..64)
            .find(|&i| spec.classes[spec.class_of(i)].radio != Radio::Wifi)
            .expect("population has cellular devices");
        let p = run_device(&spec, idx);
        assert!(p.probes_sent > 0);
        assert_eq!(p.dn.len(), 0);
        assert_eq!(p.overhead.len(), 0);
    }
}
