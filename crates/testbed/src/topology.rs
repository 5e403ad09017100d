//! The Fig. 2 testbed, assembled:
//!
//! ```text
//!  phone ── StaMac ──╮                          ╭── link(netem) ── measurement server
//!  load gen ─ StaMac ─┼── medium ── AP ── switch ┤
//!  capture (A/B/C) ───╯   (802.11g)  (gateway)   ╰── load server
//! ```
//!
//! The AP is the first-hop gateway (TTL handling), the switch routes the
//! wired segment, and the netem link in front of the measurement server
//! emulates the controlled path length (the paper's `tc` delays). The
//! paper's three sniffers are one monitor holding three vantage points.

use netem::{
    FaultNames, FaultPlan, LinkNames, LinkNode, LinkParams, LoadConfig, ServerConfig, ServerNode,
    SwitchNode, UdpBlasterNode,
};
use phone::{App, PhoneNode, PhoneProfile, RuntimeKind};
use phy80211::{ApConfig, ApNode, MediumConfig, MediumNode, PsmPolicy, StaConfig, StaMacNode};
use simcore::{NodeId, Sim, SimDuration, SimTime};
use sniffer::{CaptureIndex, CaptureNode};
use wire::{Mac, Msg};

use crate::DeviceStorage;

/// Addresses used by the standard testbed.
pub mod addr {
    use wire::Ip;

    /// The measurement server (behind the netem link).
    pub const SERVER: Ip = Ip::new(10, 0, 0, 1);
    /// The load server (iPerf sink).
    pub const LOAD_SERVER: Ip = Ip::new(10, 0, 0, 2);
    /// The wired host running the ping2 prober, when present.
    pub const PROBER: Ip = Ip::new(10, 0, 0, 3);
    /// The AP's LAN address (the first-hop gateway).
    pub const GATEWAY: Ip = Ip::new(192, 168, 1, 1);
    /// The phone under test.
    pub const PHONE: Ip = Ip::new(192, 168, 1, 100);
    /// The wireless load generator.
    pub const LOAD_GEN: Ip = Ip::new(192, 168, 1, 101);
}

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// RNG seed; everything stochastic derives from it.
    pub seed: u64,
    /// The phone under test.
    pub profile: PhoneProfile,
    /// Emulated path RTT (split across the two directions of the server
    /// link, like `tc` on the server side).
    pub emulated_rtt: SimDuration,
    /// Enable the iPerf-style cross traffic of §4.3.
    pub cross_traffic: bool,
    /// When the cross traffic stops (ignored unless enabled).
    pub cross_stop: SimTime,
    /// Whether the sniffers capture cross-traffic data frames. The
    /// paper's sniffers do (default `true`); fleet campaigns, whose
    /// analysis only ever queries probe packets, turn this off so a
    /// congested channel does not cost a capture delivery per blaster
    /// datagram.
    pub sniffer_capture_cross: bool,
    /// Whether the phone's host-bus sleep feature is enabled (Table 3 and
    /// Fig. 9 disable it, as the paper does by patching the driver).
    pub bus_sleep: bool,
    /// Override the STA PSM policy (None = adaptive with the profile's
    /// `Tip`); the static-PSM ablation sets this.
    pub psm_override: Option<PsmPolicy>,
    /// Override the listen interval (None = the profile's actual value).
    pub listen_interval_override: Option<u32>,
    /// Number of sniffers (the paper uses three): the vantage points of
    /// the one capture node. With none, nothing is captured.
    pub sniffers: usize,
    /// Per-sniffer independent capture-loss probability.
    pub sniffer_loss: f64,
    /// Packet-loss probability per direction on the server link (fault
    /// injection for robustness experiments).
    pub path_loss: f64,
    /// Negotiate U-APSD (WMM power save) between the phone and the AP:
    /// buffered downlink rides the phone's uplink triggers instead of
    /// beacon TIM + PS-Poll.
    pub uapsd: bool,
    /// WiFi channel frame-error rate (MAC retransmissions recover it).
    pub wifi_fer: f64,
    /// Fault plan for the server link (loss/reorder/duplicate/jitter/flap
    /// beyond the plain `path_loss` Bernoulli knob). `None` = no faults.
    pub server_link_faults: Option<FaultPlan>,
    /// Post-MAC fault plan for the 802.11 medium: data frames can be eaten
    /// *after* a successful MAC exchange (the transmitter still sees
    /// TxDone), so only app-level retry/re-warm recovers. `None` = off.
    pub wifi_faults: Option<FaultPlan>,
    /// Override the AP beacon interval (None = the 802.11 default of
    /// 102.4 ms). Fleet campaigns sweep this across device populations.
    pub beacon_interval_override: Option<SimDuration>,
}

impl TestbedConfig {
    /// A standard testbed around `profile` with the given emulated RTT.
    pub fn new(seed: u64, profile: PhoneProfile, emulated_rtt_ms: u64) -> TestbedConfig {
        TestbedConfig {
            seed,
            profile,
            emulated_rtt: SimDuration::from_millis(emulated_rtt_ms),
            cross_traffic: false,
            cross_stop: SimTime::from_secs(3600),
            sniffer_capture_cross: true,
            bus_sleep: true,
            psm_override: None,
            listen_interval_override: None,
            sniffers: 3,
            sniffer_loss: 0.03,
            path_loss: 0.0,
            uapsd: false,
            wifi_fer: 0.0,
            server_link_faults: None,
            wifi_faults: None,
            beacon_interval_override: None,
        }
    }

    /// Builder: override the AP beacon interval.
    pub fn with_beacon_interval(mut self, interval: SimDuration) -> Self {
        self.beacon_interval_override = Some(interval);
        self
    }

    /// Builder: install a fault plan on the server link.
    pub fn with_server_link_faults(mut self, plan: FaultPlan) -> Self {
        self.server_link_faults = Some(plan);
        self
    }

    /// Builder: install a post-MAC fault plan on the 802.11 medium.
    pub fn with_wifi_faults(mut self, plan: FaultPlan) -> Self {
        self.wifi_faults = Some(plan);
        self
    }

    /// Builder: set the WiFi channel frame-error rate.
    pub fn with_wifi_fer(mut self, fer: f64) -> Self {
        self.wifi_fer = fer;
        self
    }

    /// Builder: negotiate U-APSD for the phone.
    pub fn with_uapsd(mut self) -> Self {
        self.uapsd = true;
        self
    }

    /// Builder: inject packet loss on the server link.
    pub fn with_path_loss(mut self, loss: f64) -> Self {
        self.path_loss = loss;
        self
    }

    /// Builder: enable cross traffic until `stop`.
    pub fn with_cross_traffic(mut self, stop: SimTime) -> Self {
        self.cross_traffic = true;
        self.cross_stop = stop;
        self
    }

    /// Builder: disable the phone's bus sleep feature.
    pub fn without_bus_sleep(mut self) -> Self {
        self.bus_sleep = false;
        self
    }
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulator.
    pub sim: Sim<Msg>,
    /// Node ids of every component.
    pub phone: NodeId,
    /// The phone's station MAC.
    pub sta: NodeId,
    /// The access point.
    pub ap: NodeId,
    /// The shared medium.
    pub medium: NodeId,
    /// The wired switch.
    pub switch: NodeId,
    /// The netem link in front of the measurement server.
    pub server_link: NodeId,
    /// The measurement server.
    pub server: NodeId,
    /// The load server.
    pub load_server: NodeId,
    /// The capture node holding every sniffer (attached to the medium
    /// only when the config has sniffers).
    pub capture: NodeId,
    /// The cross-traffic blaster (if enabled).
    pub blaster: Option<NodeId>,
    /// The beacon offset chosen for this run.
    pub beacon_offset: SimDuration,
}

/// MAC addresses: AP = local(0), phone = local(1), load generator = local(2).
const AP_MAC: Mac = Mac::local(0);
const PHONE_MAC: Mac = Mac::local(1);
const LOAD_MAC: Mac = Mac::local(2);

impl Testbed {
    /// Build the testbed. Install apps with [`Testbed::install_app`]
    /// before running.
    pub fn build(cfg: TestbedConfig) -> Testbed {
        Testbed::build_on(cfg, &mut DeviceStorage::default())
    }

    /// [`Testbed::build`] on the containers an earlier testbed left in
    /// `storage` ([`Testbed::recycle`]); the testbed holds them until
    /// it is recycled. What it runs is the same either way.
    pub fn build_on(cfg: TestbedConfig, storage: &mut DeviceStorage) -> Testbed {
        let mut sim = storage.take_sim(cfg.seed);

        // Beacon phase: uniform over the beacon cycle, from the seed.
        let beacon_interval = cfg
            .beacon_interval_override
            .unwrap_or_else(phy80211::default_beacon_interval);
        let beacon_offset = {
            let mut r = sim.fork_rng(0xBEAC);
            SimDuration::from_nanos(r.uniform_u64(0, beacon_interval.as_nanos() - 1))
        };

        // Wired core.
        let switch = sim.add_node(Box::new(SwitchNode::new(SimDuration::from_micros(50))));
        let server = sim.add_node(Box::new(ServerNode::new(
            100,
            ServerConfig::standard(addr::SERVER),
        )));
        let load_server = sim.add_node(Box::new(ServerNode::new(
            101,
            ServerConfig::standard(addr::LOAD_SERVER),
        )));
        let half = SimDuration::from_nanos(cfg.emulated_rtt.as_nanos() / 2);
        let server_link = sim.add_node(Box::new(LinkNode::new(LinkParams {
            delay: half,
            jitter_std_ms: 0.05,
            loss: cfg.path_loss,
            rate_mbps: None,
        })));
        sim.node_mut::<LinkNode>(server_link)
            .connect(switch, server);
        if let Some(plan) = &cfg.server_link_faults {
            sim.node_mut::<LinkNode>(server_link).set_fault_plan(plan);
        }

        // Radio side.
        let medium_cfg = MediumConfig {
            frame_error_rate: cfg.wifi_fer,
            ..MediumConfig::default()
        };
        let medium = sim.add_node(Box::new(MediumNode::new(medium_cfg)));
        if let Some(plan) = &cfg.wifi_faults {
            sim.node_mut::<MediumNode>(medium).set_fault_plan(plan);
        }
        let ap = sim.add_node(Box::new(ApNode::new(
            110,
            ApConfig {
                mac: AP_MAC,
                lan_ip: addr::GATEWAY,
                beacon_interval,
                beacon_offset,
                ..ApConfig::default()
            },
            medium,
            switch,
        )));
        // The AP only acts on frames addressed to it (beacons are its
        // own), and it needs TX confirmations to pace its downlink
        // queue, so it attaches as a station with feedback.
        sim.node_mut::<MediumNode>(medium)
            .attach_station(ap, AP_MAC, true);

        // The sniffers: one monitor, one delivery per frame.
        let mut capture_node = CaptureNode::new(cfg.sniffers, cfg.sniffer_loss);
        capture_node.set_index(std::mem::take(&mut storage.capture));
        let capture = sim.add_node(Box::new(capture_node));
        if cfg.sniffers > 0 {
            sim.node_mut::<MediumNode>(medium)
                .attach_monitor(capture, cfg.sniffer_capture_cross);
        }

        // The phone and its station MAC.
        let sta_cfg = StaConfig {
            psm: cfg.psm_override.clone().unwrap_or(PsmPolicy::Adaptive {
                timeout: cfg.profile.psm_timeout,
            }),
            listen_interval: cfg
                .listen_interval_override
                .unwrap_or(cfg.profile.listen_interval_actual),
            wake_tx: cfg.profile.psm_wake_tx,
            beacon_miss_prob: cfg.profile.beacon_miss_prob,
            uapsd: cfg.uapsd,
        };
        let sta = sim.add_node(Box::new(StaMacNode::new(
            120, PHONE_MAC, AP_MAC, sta_cfg, medium,
            switch, // placeholder host; re-pointed below
        )));
        // Stations hear only frames addressed to them (plus broadcasts,
        // i.e. beacons) and ignore TX confirmations, so they opt out of
        // both the promiscuous fan-out and the feedback events.
        sim.node_mut::<MediumNode>(medium)
            .attach_station(sta, PHONE_MAC, false);
        let mut phone_node = PhoneNode::new(1, cfg.profile.clone(), addr::PHONE, sta);
        phone_node.set_tables(std::mem::take(&mut storage.phone));
        phone_node.core_mut().bus.set_sleep_enabled(cfg.bus_sleep);
        let phone = sim.add_node(Box::new(phone_node));
        sim.node_mut::<StaMacNode>(sta).set_host(phone);
        if cfg.uapsd {
            sim.node_mut::<ApNode>(ap)
                .associate_uapsd(PHONE_MAC, addr::PHONE);
        } else {
            sim.node_mut::<ApNode>(ap).associate(PHONE_MAC, addr::PHONE);
        }

        // Cross traffic: a CAM-mode wireless load generator.
        let blaster = if cfg.cross_traffic {
            let load_sta = sim.add_node(Box::new(StaMacNode::new(
                130,
                LOAD_MAC,
                AP_MAC,
                StaConfig {
                    psm: PsmPolicy::CamAlways,
                    ..StaConfig::default()
                },
                medium,
                switch, // placeholder; re-pointed below
            )));
            sim.node_mut::<MediumNode>(medium)
                .attach_station(load_sta, LOAD_MAC, false);
            sim.node_mut::<ApNode>(ap)
                .associate(LOAD_MAC, addr::LOAD_GEN);
            let load_cfg =
                LoadConfig::paper_cross_traffic(addr::LOAD_GEN, addr::LOAD_SERVER, cfg.cross_stop);
            let b = sim.add_node(Box::new(UdpBlasterNode::new(140, load_cfg, load_sta)));
            sim.node_mut::<StaMacNode>(load_sta).set_host(b);
            Some(b)
        } else {
            None
        };

        // Switch routes.
        {
            let sw = sim.node_mut::<SwitchNode>(switch);
            sw.add_route(addr::SERVER, server_link);
            sw.add_route(addr::LOAD_SERVER, load_server);
            sw.add_route(addr::PHONE, ap);
            sw.add_route(addr::LOAD_GEN, ap);
        }

        Testbed {
            sim,
            phone,
            sta,
            ap,
            medium,
            switch,
            server_link,
            server,
            load_server,
            capture,
            blaster,
            beacon_offset,
        }
    }

    /// Drop the testbed's nodes and hand its containers back to
    /// `storage`, emptied, for the next [`Testbed::build_on`].
    pub fn recycle(mut self, storage: &mut DeviceStorage) {
        storage.phone = self.sim.node_mut::<PhoneNode>(self.phone).take_tables();
        storage.capture = self.sim.node_mut::<CaptureNode>(self.capture).take_index();
        storage.put_sim(self.sim);
    }

    /// Install a measurement app on the phone (before running).
    pub fn install_app(&mut self, app: Box<dyn App>, runtime: RuntimeKind) -> usize {
        self.sim
            .node_mut::<PhoneNode>(self.phone)
            .install_app(app, runtime)
    }

    /// Write the counts of every model layer of the testbed into `out`:
    /// the phone's host bus (`phone.sdio.*`), the station and AP MACs
    /// (`phy.sta.*`, `phy.ap.*`), the netem link (`netem.link.server.*`),
    /// the measurement server (`netem.server.*`), and the fault layers
    /// that have a plan (`fault.server_link.*`, `fault.wifi.*`). Apps
    /// export their own counts via [`Testbed::phone_node`], and the
    /// simulator engine its `sim.*` counts via `tb.sim.export`. Call
    /// after running: the layers count whether or not anyone reads them.
    pub fn export(&self, out: &mut obs::Snapshot) {
        self.phone_node().core().bus.export(out);
        self.sim.node::<StaMacNode>(self.sta).export(out);
        self.sim.node::<ApNode>(self.ap).export(out);
        let link = self.sim.node::<LinkNode>(self.server_link);
        link.export(&LinkNames::SERVER, out);
        self.sim.node::<ServerNode>(self.server).export(out);
        if let Some(faults) = link.fault_stats() {
            faults.export(&FaultNames::SERVER_LINK, out);
        }
        if let Some(faults) = self.sim.node::<MediumNode>(self.medium).fault_stats() {
            faults.export(&FaultNames::WIFI, out);
        }
    }

    /// Attach a causal span tracer to the simulator so every layer of the
    /// delay pipeline records per-probe spans (phone runtime/kernel/SDIO,
    /// STA doze wake, AP buffering, netem link and server). With no call
    /// the pipeline's trace hooks are zero-cost no-ops.
    pub fn attach_tracer(&mut self, tracer: &obs::Tracer) {
        self.sim.set_tracer(tracer);
    }

    /// Run until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// The phone node.
    pub fn phone_node(&self) -> &PhoneNode {
        self.sim.node::<PhoneNode>(self.phone)
    }

    /// Typed app view.
    pub fn app<T: 'static>(&self, idx: usize) -> &T {
        self.phone_node().app::<T>(idx)
    }

    /// Every frame the sniffers caught, once each, in on-air order.
    pub fn capture_index(&self) -> &CaptureIndex {
        self.sim.node::<CaptureNode>(self.capture).index()
    }

    /// Attach a ping2-style wired prober (Sui et al. \[34\]) at
    /// [`addr::PROBER`], behind its own netem link of `rtt_ms` (the
    /// emulated path length between the prober and the WLAN).
    pub fn add_ping2_prober(&mut self, cfg: measure::Ping2Config, rtt_ms: u64) -> NodeId {
        let link = self
            .sim
            .add_node(Box::new(LinkNode::new(LinkParams::delay_ms(rtt_ms / 2))));
        let prober = self
            .sim
            .add_node(Box::new(measure::Ping2Prober::new(150, cfg, link)));
        self.sim
            .node_mut::<LinkNode>(link)
            .connect(prober, self.switch);
        self.sim
            .node_mut::<SwitchNode>(self.switch)
            .add_route(addr::PROBER, link);
        prober
    }

    /// The AP node (for PSM-state assertions).
    pub fn ap_node(&self) -> &ApNode {
        self.sim.node::<ApNode>(self.ap)
    }

    /// The phone's station MAC (for PSM statistics).
    pub fn sta_node(&self) -> &StaMacNode {
        self.sim.node::<StaMacNode>(self.sta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{Baseline, BaselineApp, RecordSet};

    #[test]
    fn testbed_end_to_end_ping() {
        let mut tb = Testbed::build(TestbedConfig::new(1, phone::nexus5(), 30));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                addr::SERVER,
                10,
                SimDuration::from_millis(10),
            )),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(5));
        let ping = tb.app::<BaselineApp>(app);
        assert_eq!(ping.records.len(), 10);
        assert!(
            (ping.records.completion() - 1.0).abs() < 1e-12,
            "lost probes"
        );
        for du in ping.records.du() {
            assert!(du > 30.0 && du < 60.0, "du={du}");
        }
    }

    #[test]
    fn sniffers_see_probes_and_dn_is_close_to_emulated() {
        let mut tb = Testbed::build(TestbedConfig::new(2, phone::nexus5(), 50));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                addr::SERVER,
                10,
                SimDuration::from_millis(10),
            )),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(5));
        let index = tb.capture_index();
        let ping = tb.app::<BaselineApp>(app);
        let mut dns = Vec::new();
        for r in &ping.records {
            if let Some(resp) = r.resp_id {
                if let Some(dn) = index.dn_ms(r.req_id, resp) {
                    dns.push(dn);
                }
            }
        }
        assert!(dns.len() >= 8, "sniffers missed too much: {}", dns.len());
        let mean = dns.iter().sum::<f64>() / dns.len() as f64;
        assert!((mean - 50.0).abs() < 5.0, "dn mean={mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        fn run() -> Vec<f64> {
            let mut tb = Testbed::build(TestbedConfig::new(7, phone::nexus4(), 30));
            let app = tb.install_app(
                Box::new(BaselineApp::new(
                    Baseline::Ping,
                    addr::SERVER,
                    5,
                    SimDuration::from_millis(100),
                )),
                RuntimeKind::Native,
            );
            tb.run_until(SimTime::from_secs(3));
            tb.app::<BaselineApp>(app).records.du()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn cross_traffic_reaches_load_server() {
        let mut tb = Testbed::build(
            TestbedConfig::new(3, phone::nexus5(), 30).with_cross_traffic(SimTime::from_secs(1)),
        );
        tb.run_until(SimTime::from_secs(1));
        let sink = tb.sim.node::<ServerNode>(tb.load_server);
        // Offered 25 Mbit/s into a ~18 Mbit/s channel: plenty arrives,
        // but visibly less than offered (congestion).
        let mbps = sink.stats.udp_discarded_bytes as f64 * 8.0 / 1e6;
        assert!(mbps > 5.0, "goodput={mbps}");
        assert!(mbps < 22.0, "goodput={mbps}");
    }

    #[test]
    fn warmup_ttl1_dies_at_gateway() {
        use acutemon::{AcuteMonApp, AcuteMonConfig};
        let mut tb = Testbed::build(TestbedConfig::new(4, phone::nexus5(), 30));
        let app = tb.install_app(
            Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 5))),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(3));
        let am = tb.app::<AcuteMonApp>(app);
        assert!((am.records.completion() - 1.0).abs() < 1e-12);
        assert!(am.bt.background_sent > 0);
        // The gateway dropped every warm-up/background packet.
        let ap = tb.ap_node();
        assert_eq!(
            ap.stats.dropped_ttl,
            am.bt.background_sent + am.bt.warmup_sent
        );
        // And none of them reached the measurement server as UDP.
        let server = tb.sim.node::<ServerNode>(tb.server);
        assert_eq!(server.stats.udp_discarded, 0);
    }
}
