//! The cellular variant of the testbed: phone → cellular bearer (RRC) →
//! netem link → measurement server. Used by the `ablate_cellular`
//! experiment and the `cellular_rrc` example to demonstrate the paper's
//! §4 claim that AcuteMon's scheme also punctures RRC-transition
//! inflation.

use cellular::{CellConfig, CellNode};
use netem::{FaultPlan, LinkNode, LinkParams, ServerConfig, ServerNode};
use phone::{App, PhoneNode, PhoneProfile, RuntimeKind};
use simcore::{NodeId, Sim, SimTime};
use wire::{Ip, Msg};

use crate::DeviceStorage;

/// Addresses for the cellular testbed.
pub mod cell_addr {
    use wire::Ip;

    /// The measurement server.
    pub const SERVER: Ip = Ip::new(10, 0, 0, 1);
    /// The P-GW / first-hop gateway.
    pub const GATEWAY: Ip = Ip::new(10, 100, 0, 1);
    /// The phone's bearer address.
    pub const PHONE: Ip = Ip::new(10, 100, 0, 2);
}

/// Configuration of the cellular testbed.
#[derive(Debug, Clone)]
pub struct CellTestbedConfig {
    /// RNG seed.
    pub seed: u64,
    /// The phone under test. Its WNIC bus model is bypassed on cellular
    /// (the modem has its own power management — the RRC machine), so
    /// bus sleep is disabled in the built phone.
    pub profile: PhoneProfile,
    /// Cellular bearer parameters (LTE or UMTS presets).
    pub cell: CellConfig,
    /// Core-network RTT beyond the bearer, ms.
    pub core_rtt_ms: u64,
    /// Faults injected on the radio bearer (fading, handover loss) —
    /// both directions, applied after RRC accounting so lost uplinks
    /// still warm the radio.
    pub bearer_faults: Option<FaultPlan>,
}

impl CellTestbedConfig {
    /// An LTE testbed around `profile` with the given core RTT.
    pub fn lte(seed: u64, profile: PhoneProfile, core_rtt_ms: u64) -> CellTestbedConfig {
        CellTestbedConfig {
            seed,
            profile,
            cell: CellConfig::lte(cell_addr::GATEWAY),
            core_rtt_ms,
            bearer_faults: None,
        }
    }

    /// A UMTS/3G testbed.
    pub fn umts(seed: u64, profile: PhoneProfile, core_rtt_ms: u64) -> CellTestbedConfig {
        CellTestbedConfig {
            seed,
            profile,
            cell: CellConfig::umts(cell_addr::GATEWAY),
            core_rtt_ms,
            bearer_faults: None,
        }
    }

    /// Builder: inject `plan` on the radio bearer.
    pub fn with_bearer_faults(mut self, plan: FaultPlan) -> CellTestbedConfig {
        self.bearer_faults = Some(plan);
        self
    }

    /// An AcuteMon config tuned for this bearer: retries enabled with a
    /// re-warm lead that clears the RRC promotion delay (the cellular
    /// analogue of the paper's `Tprom < dpre` rule).
    pub fn acutemon_profile(&self, k: u32) -> acutemon::AcuteMonConfig {
        acutemon::AcuteMonConfig::new(cell_addr::SERVER, k)
            .with_retries(4)
            .with_rewarm_dpre(cellular::acutemon_rewarm_dpre(&self.cell.rrc))
    }
}

/// The assembled cellular testbed.
pub struct CellTestbed {
    /// The simulator.
    pub sim: Sim<Msg>,
    /// The phone node.
    pub phone: NodeId,
    /// The cellular bearer node.
    pub cell: NodeId,
    /// The measurement server.
    pub server: NodeId,
}

impl CellTestbed {
    /// Build the testbed.
    pub fn build(cfg: CellTestbedConfig) -> CellTestbed {
        CellTestbed::build_on(cfg, &mut DeviceStorage::default())
    }

    /// [`CellTestbed::build`] on the containers an earlier testbed left
    /// in `storage` ([`CellTestbed::recycle`]); it has no capture, so
    /// the storage keeps its capture index.
    pub fn build_on(cfg: CellTestbedConfig, storage: &mut DeviceStorage) -> CellTestbed {
        let mut sim = storage.take_sim(cfg.seed);
        let server = sim.add_node(Box::new(ServerNode::new(
            100,
            ServerConfig::standard(cell_addr::SERVER),
        )));
        let link = sim.add_node(Box::new(LinkNode::new(LinkParams::delay_ms(
            cfg.core_rtt_ms / 2,
        ))));
        let rng = sim.fork_rng(0xCE11);
        let mut cell_node = CellNode::new(
            210, cfg.cell, link, // placeholder host; re-pointed below
            link, rng,
        );
        if let Some(plan) = &cfg.bearer_faults {
            cell_node.set_fault_plan(plan);
        }
        let cell = sim.add_node(Box::new(cell_node));
        sim.node_mut::<LinkNode>(link).connect(cell, server);
        let mut phone_node = PhoneNode::new(1, cfg.profile, cell_addr::PHONE, cell);
        phone_node.set_tables(std::mem::take(&mut storage.phone));
        // The WNIC/SDIO model is a WiFi artifact; the modem's power
        // behaviour is the RRC machine.
        phone_node.core_mut().bus.set_sleep_enabled(false);
        let phone = sim.add_node(Box::new(phone_node));
        sim.node_mut::<CellNode>(cell).set_host(phone);
        CellTestbed {
            sim,
            phone,
            cell,
            server,
        }
    }

    /// Drop the testbed's nodes and hand its containers back to
    /// `storage`, emptied, for the next build on it.
    pub fn recycle(mut self, storage: &mut DeviceStorage) {
        storage.phone = self.sim.node_mut::<PhoneNode>(self.phone).take_tables();
        storage.put_sim(self.sim);
    }

    /// Install an app on the phone.
    pub fn install_app(&mut self, app: Box<dyn App>, runtime: RuntimeKind) -> usize {
        self.sim
            .node_mut::<PhoneNode>(self.phone)
            .install_app(app, runtime)
    }

    /// Run until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Typed app view.
    pub fn app<T: 'static>(&self, idx: usize) -> &T {
        self.sim.node::<PhoneNode>(self.phone).app::<T>(idx)
    }

    /// The server address apps should target.
    pub fn server_ip(&self) -> Ip {
        cell_addr::SERVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{Baseline, BaselineApp, RecordSet};
    use simcore::SimDuration;

    #[test]
    fn lte_ping_end_to_end() {
        let mut tb = CellTestbed::build(CellTestbedConfig::lte(1, phone::nexus5(), 40));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                cell_addr::SERVER,
                5,
                SimDuration::from_millis(200),
            )),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(10));
        let ping = tb.app::<BaselineApp>(app);
        assert!((ping.records.completion() - 1.0).abs() < 1e-12);
        let du = ping.records.du();
        // First probe pays the idle promotion; the rest ride connected.
        assert!(du[0] > du[1] + 50.0, "du0 {} du1 {}", du[0], du[1]);
        // Warm RTT ≈ core 40 + bearer ~12.
        assert!((du[1] - 52.0).abs() < 10.0, "du1 {}", du[1]);
    }

    #[test]
    fn bearer_faults_drop_packets_and_acutemon_recovers() {
        use acutemon::AcuteMonApp;
        use cellular::CellNode;
        use measure::RecordSet;
        use netem::FaultPlan;

        let cfg = CellTestbedConfig::lte(7, phone::nexus5(), 40)
            .with_bearer_faults(FaultPlan::gilbert_elliott(0.3, 3.0).with_seed(0xBEA7));
        let am_cfg = cfg.acutemon_profile(40);
        // The derived retry profile clears the LTE worst-case promotion.
        assert!(
            am_cfg.effective_rewarm_dpre() > SimDuration::from_millis(200),
            "rewarm lead {} must cover LTE idle promotion",
            am_cfg.effective_rewarm_dpre()
        );
        let mut tb = CellTestbed::build(cfg);
        let app = tb.install_app(Box::new(AcuteMonApp::new(am_cfg)), RuntimeKind::Native);
        tb.run_until(SimTime::from_secs(240));
        let am = tb.app::<AcuteMonApp>(app);
        // 30% bursty bearer loss: the retry/re-warm loop still completes
        // every probe.
        assert!(
            (am.records.completion() - 1.0).abs() < 1e-12,
            "completion {}",
            am.records.completion()
        );
        assert!(am.records.total_retries() > 0, "loss must cost retries");
        // The bearer actually dropped packets — visible in its counters.
        let cell = tb.sim.node::<CellNode>(tb.cell);
        let fs = cell.fault_stats().expect("fault plan installed");
        assert!(fs.dropped() > 0);
        assert_eq!(fs.dropped(), cell.stats.dropped_fault);
        // And the recovered probes stay accurate: the retried probe rides
        // a re-warmed (promoted) bearer, so the censored median overhead
        // over core RTT + warm bearer stays in single-digit ms.
        let med = am.records.du_censored().median().expect("identifiable");
        assert!(med < 70.0, "median du {med} on a 40 ms core + warm bearer");
    }

    #[test]
    fn default_wifi_dpre_underruns_cellular_promotion() {
        // The guard rail the ROADMAP asked for, stated as a test: the
        // WiFi default (20 ms) is NOT a safe re-warm lead on cellular —
        // the promotion-aware profile must be used instead.
        let wifi_default = acutemon::AcuteMonConfig::new(cell_addr::SERVER, 5);
        let lte = cellular::RrcConfig::lte();
        assert!(wifi_default.effective_rewarm_dpre() < lte.max_promotion_delay());
        assert!(cellular::acutemon_rewarm_dpre(&lte) > lte.max_promotion_delay());
    }

    #[test]
    fn sparse_probes_pay_promotions() {
        let mut tb = CellTestbed::build(CellTestbedConfig::lte(2, phone::nexus5(), 40));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                cell_addr::SERVER,
                4,
                SimDuration::from_secs(15), // > 10 s idle timer
            )),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(60));
        let du = tb.app::<BaselineApp>(app).records.du();
        for (i, d) in du.iter().enumerate() {
            assert!(*d > 110.0, "probe {i} du {d}");
        }
    }
}
