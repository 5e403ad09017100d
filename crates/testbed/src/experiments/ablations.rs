//! Ablations and extensions beyond the paper's figures (DESIGN.md §5):
//!
//! * [`db_sweep`] — what happens when `db` violates `db < min(Tis, Tip)`;
//! * [`ttl_ablation`] — warm-up TTL 1 vs 64 (path load);
//! * [`ping2_comparison`] — ping2 \[34\] vs AcuteMon on short and long
//!   paths (the §1 claim that ping2 cannot fix long nRTTs);
//! * [`static_psm`] — static vs adaptive PSM (the RTT round-up of \[19\]);
//! * [`listen_interval_sweep`] — downlink inflation `∝ IB × (L+1)`.

use acutemon::{AcuteMonApp, AcuteMonConfig};
use am_stats::median;
use measure::{Baseline, BaselineApp, Ping2Config, Ping2Prober, RecordSet};
use netem::ServerNode;
use obs::ToJson;
use phone::{App, PhoneNode, RuntimeKind};
use phy80211::PsmPolicy;
use simcore::{LatencyDist, SimDuration, SimTime};

use crate::{addr, Testbed, TestbedConfig};

/// One point of the `db` sweep.
#[derive(Debug, Clone, ToJson)]
pub struct DbSweepPoint {
    /// Background interval (ms).
    pub db_ms: u64,
    /// Median total overhead `du − emulated RTT` (ms).
    pub overhead_ms: f64,
    /// Background packets spent.
    pub bg_packets: u64,
}

/// Sweep `db` on a Nexus 4 (`Tip` ≈ 40 ms, `Tis` = 50 ms) over a 50 ms
/// path: intervals beyond `min(Tis, Tip)` let the phone demote mid-run
/// and the overhead comes back.
pub fn db_sweep(k: u32, seed: u64) -> Vec<DbSweepPoint> {
    let rtt = 50u64;
    [10u64, 20, 30, 60, 120]
        .iter()
        .map(|&db| {
            let mut tb = Testbed::build(TestbedConfig::new(seed ^ db, phone::nexus4(), rtt));
            let cfg = AcuteMonConfig::new(addr::SERVER, k)
                .with_timing(SimDuration::from_millis(20), SimDuration::from_millis(db));
            let app = tb.install_app(Box::new(AcuteMonApp::new(cfg)), RuntimeKind::Native);
            tb.run_until(SimTime::from_secs(40));
            let am = tb.sim.node::<PhoneNode>(tb.phone).app::<AcuteMonApp>(app);
            let du = am.records.du();
            DbSweepPoint {
                db_ms: db,
                overhead_ms: median(&du).unwrap_or(0.0) - rtt as f64,
                bg_packets: am.bt.background_sent,
            }
        })
        .collect()
}

/// One arm of the TTL ablation.
#[derive(Debug, Clone, ToJson)]
pub struct TtlArm {
    /// Warm-up TTL used.
    pub ttl: u8,
    /// Median measured RTT (ms).
    pub median_du_ms: f64,
    /// Background/warm-up datagrams that reached the measurement server.
    pub server_load_pkts: u64,
}

/// Warm-up TTL 1 vs 64 on a Nexus 5 over an 85 ms path: accuracy is the
/// same, but TTL 64 ships every keep-awake packet across the whole path.
pub fn ttl_ablation(k: u32, seed: u64) -> Vec<TtlArm> {
    [1u8, 64]
        .iter()
        .map(|&ttl| {
            let mut tb = Testbed::build(TestbedConfig::new(
                seed ^ u64::from(ttl),
                phone::nexus5(),
                85,
            ));
            let cfg = AcuteMonConfig::new(addr::SERVER, k).with_warmup_ttl(ttl);
            let app = tb.install_app(Box::new(AcuteMonApp::new(cfg)), RuntimeKind::Native);
            tb.run_until(SimTime::from_secs(40));
            let am = tb.sim.node::<PhoneNode>(tb.phone).app::<AcuteMonApp>(app);
            let du = am.records.du();
            let server = tb.sim.node::<ServerNode>(tb.server);
            TtlArm {
                ttl,
                median_du_ms: median(&du).unwrap_or(0.0),
                // Warm-up/background packets are UDP to a non-echo port:
                // at the server they land in the discard counter.
                server_load_pkts: server.stats.udp_discarded,
            }
        })
        .collect()
}

/// One arm of the ping2 comparison.
#[derive(Debug, Clone, ToJson)]
pub struct Ping2Arm {
    /// Emulated RTT (ms).
    pub rtt_ms: u64,
    /// Median ping2 second-ping overhead (ms over the emulated RTT).
    pub ping2_overhead_ms: f64,
    /// Median AcuteMon overhead (ms over the emulated RTT).
    pub acutemon_overhead_ms: f64,
}

/// ping2 \[34\] vs AcuteMon at 20 ms and 120 ms: on the long path ping2's
/// second ping arrives a full nRTT after the phone's last activity —
/// beyond `Tis` — so it pays the bus wake again; AcuteMon does not.
pub fn ping2_comparison(k: u32, seed: u64) -> Vec<Ping2Arm> {
    [20u64, 120]
        .iter()
        .map(|&rtt| {
            // ping2 run.
            let mut tb = Testbed::build(TestbedConfig::new(seed ^ rtt, phone::nexus5(), rtt));
            let prober = tb.add_ping2_prober(
                Ping2Config::new(addr::PROBER, addr::PHONE, k, SimDuration::from_secs(1)),
                rtt,
            );
            tb.run_until(SimTime::from_secs(u64::from(k) + 5));
            let recs = &tb.sim.node::<Ping2Prober>(prober).records;
            let rtt2: Vec<f64> = recs.iter().filter_map(|r| r.rtt2_ms).collect();
            let ping2_overhead = median(&rtt2).unwrap_or(0.0) - rtt as f64;

            // AcuteMon run on the same path.
            let mut tb2 =
                Testbed::build(TestbedConfig::new(seed ^ rtt ^ 0xA, phone::nexus5(), rtt));
            let app = tb2.install_app(
                Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
                RuntimeKind::Native,
            );
            tb2.run_until(SimTime::from_secs(40));
            let du = tb2
                .sim
                .node::<PhoneNode>(tb2.phone)
                .app::<AcuteMonApp>(app)
                .records
                .du();
            Ping2Arm {
                rtt_ms: rtt,
                ping2_overhead_ms: ping2_overhead,
                acutemon_overhead_ms: median(&du).unwrap_or(0.0) - rtt as f64,
            }
        })
        .collect()
}

/// One arm of the PSM-policy ablation.
#[derive(Debug, Clone, ToJson)]
pub struct PsmArm {
    /// `"static"` or `"adaptive"`.
    pub policy: &'static str,
    /// Median ping RTT (ms) over a 30 ms path.
    pub median_du_ms: f64,
    /// 90th-percentile RTT (ms).
    pub p90_du_ms: f64,
}

/// Static vs adaptive PSM (Krashinsky & Balakrishnan's round-up effect
/// \[19\]): under static PSM every response waits for a beacon.
pub fn static_psm(k: u32, seed: u64) -> Vec<PsmArm> {
    [("static", true), ("adaptive", false)]
        .iter()
        .map(|&(name, is_static)| {
            let mut cfg = TestbedConfig::new(seed ^ is_static as u64, phone::nexus4(), 30);
            if is_static {
                cfg.psm_override = Some(PsmPolicy::Static);
            }
            let mut tb = Testbed::build(cfg);
            let app = tb.install_app(
                Box::new(BaselineApp::new(
                    Baseline::Ping,
                    addr::SERVER,
                    k,
                    SimDuration::from_millis(500),
                )),
                RuntimeKind::Native,
            );
            tb.run_until(SimTime::from_secs(u64::from(k) / 2 + 10));
            let mut du = tb
                .sim
                .node::<PhoneNode>(tb.phone)
                .app::<BaselineApp>(app)
                .records
                .du();
            du.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            PsmArm {
                policy: name,
                median_du_ms: median(&du).unwrap_or(0.0),
                p90_du_ms: am_stats::quantile(&du, 0.9).unwrap_or(0.0),
            }
        })
        .collect()
}

/// One arm of the listen-interval sweep.
#[derive(Debug, Clone, ToJson)]
pub struct ListenArm {
    /// Listen interval `L`.
    pub listen_interval: u32,
    /// Median downlink delivery delay to a dozing phone (ms).
    pub median_wait_ms: f64,
}

/// Sweep the listen interval: downlink packets to a dozing phone wait for
/// an attended beacon, so the delay grows with `IB × (L+1)` (§3.2.2).
pub fn listen_interval_sweep(k: u32, seed: u64) -> Vec<ListenArm> {
    [0u32, 1, 3, 9]
        .iter()
        .map(|&l| {
            let mut cfg = TestbedConfig::new(seed ^ u64::from(l), phone::nexus5(), 20);
            cfg.listen_interval_override = Some(l);
            // Deterministic beacon attendance for a clean scaling curve.
            cfg.profile.beacon_miss_prob = 0.0;
            // Short Tip so the phone is reliably dozing between probes.
            cfg.profile.psm_timeout = LatencyDist::fixed(40.0);
            let mut tb = Testbed::build(cfg);
            let prober = tb.add_ping2_prober(
                Ping2Config::new(addr::PROBER, addr::PHONE, k, SimDuration::from_secs(3)),
                20,
            );
            tb.run_until(SimTime::from_secs(u64::from(k) * 3 + 5));
            let recs = &tb.sim.node::<Ping2Prober>(prober).records;
            // The *first* ping of each pair hits the dozing phone: its RTT
            // contains the beacon wait.
            let rtt1: Vec<f64> = recs.iter().filter_map(|r| r.rtt1_ms).collect();
            ListenArm {
                listen_interval: l,
                median_wait_ms: median(&rtt1).unwrap_or(0.0),
            }
        })
        .collect()
}

/// One arm of the U-APSD ablation.
#[derive(Debug, Clone, ToJson)]
pub struct UapsdArm {
    /// Power-save flavour + tool.
    pub arm: &'static str,
    /// Median user-level RTT (ms) on a 60 ms path.
    pub median_du_ms: f64,
    /// 90th percentile (ms).
    pub p90_du_ms: f64,
    /// PS-Polls observed on the air.
    pub ps_polls: usize,
}

/// Legacy PSM vs U-APSD (WMM power save) on a short-`Tip` phone
/// (Nexus 4, `Tip` ≈ 40 ms) over a 60 ms path:
///
/// * legacy + sparse ping: responses wait for beacon TIM + PS-Poll —
///   inflated by up to a beacon interval;
/// * U-APSD + sparse ping: *worse* — buffered responses wait for the
///   phone's next uplink trigger, a full probing interval away;
/// * U-APSD + AcuteMon: clean — the 20 ms background stream doubles as a
///   trigger stream, so the scheme punctures both PSM flavours.
pub fn uapsd(k: u32, seed: u64) -> Vec<UapsdArm> {
    let rtt = 60u64;
    let mut out = Vec::new();
    for (arm, use_uapsd, acutemon) in [
        ("legacy PSM + ping 1s", false, false),
        ("U-APSD + ping 1s", true, false),
        ("U-APSD + AcuteMon", true, true),
    ] {
        let mut cfg = TestbedConfig::new(
            seed ^ (use_uapsd as u64) << 1 ^ acutemon as u64,
            phone::nexus4(),
            rtt,
        );
        if use_uapsd {
            cfg = cfg.with_uapsd();
        }
        let mut tb = Testbed::build(cfg);
        let (du, horizon) = if acutemon {
            let app = tb.install_app(
                Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
                RuntimeKind::Native,
            );
            tb.run_until(SimTime::from_secs(40));
            (
                tb.sim
                    .node::<PhoneNode>(tb.phone)
                    .app::<AcuteMonApp>(app)
                    .records
                    .du(),
                tb.sim.now(),
            )
        } else {
            let app = tb.install_app(
                Box::new(BaselineApp::new(
                    Baseline::Ping,
                    addr::SERVER,
                    k,
                    SimDuration::from_secs(1),
                )),
                RuntimeKind::Native,
            );
            tb.run_until(SimTime::from_secs(u64::from(k) + 10));
            (
                tb.sim
                    .node::<PhoneNode>(tb.phone)
                    .app::<BaselineApp>(app)
                    .records
                    .du(),
                tb.sim.now(),
            )
        };
        let mut du = du;
        du.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let index = tb.capture_index();
        out.push(UapsdArm {
            arm,
            median_du_ms: median(&du).unwrap_or(0.0),
            p90_du_ms: am_stats::quantile(&du, 0.9).unwrap_or(0.0),
            ps_polls: index.ps_polls_between(SimTime::ZERO, horizon),
        });
    }
    out
}

/// One point of the loss-robustness sweep.
#[derive(Debug, Clone, ToJson)]
pub struct LossPoint {
    /// Per-direction loss probability on the server link.
    pub loss: f64,
    /// Probe completion fraction.
    pub completion: f64,
    /// Median overhead over the emulated RTT among completed probes (ms).
    pub median_overhead_ms: f64,
    /// Wall-clock duration of the run (ms) — timeouts stretch it.
    pub duration_ms: f64,
}

/// Fault injection: AcuteMon on a lossy 50 ms path. The MT's timeout
/// machinery must keep the measurement moving (lost probes are recorded
/// and skipped), completed probes must stay accurate, and loss on the
/// keep-awake path must not re-introduce the wake overheads (background
/// packets never leave the WLAN, so server-link loss cannot touch them).
pub fn loss_robustness(k: u32, seed: u64) -> Vec<LossPoint> {
    let rtt = 50u64;
    [0.0f64, 0.02, 0.05, 0.10]
        .iter()
        .map(|&loss| {
            let mut tb = Testbed::build(
                TestbedConfig::new(seed ^ (loss * 1000.0) as u64, phone::nexus5(), rtt)
                    .with_path_loss(loss),
            );
            let mut cfg = AcuteMonConfig::new(addr::SERVER, k);
            cfg.probe_timeout = SimDuration::from_millis(500);
            let app = tb.install_app(Box::new(AcuteMonApp::new(cfg)), RuntimeKind::Native);
            tb.run_until(SimTime::from_secs(120));
            let am = tb.sim.node::<PhoneNode>(tb.phone).app::<AcuteMonApp>(app);
            let du = am.records.du();
            LossPoint {
                loss,
                completion: am.records.completion(),
                median_overhead_ms: median(&du).unwrap_or(0.0) - rtt as f64,
                duration_ms: am.finished_at().map(|t| t.as_ms_f64()).unwrap_or(120_000.0),
            }
        })
        .collect()
}

/// One point of the channel-error sweep.
#[derive(Debug, Clone, ToJson)]
pub struct FerPoint {
    /// Channel frame-error rate.
    pub fer: f64,
    /// Probe completion fraction (MAC retries should keep it at 1.0).
    pub completion: f64,
    /// Median overhead over the emulated RTT (ms).
    pub median_overhead_ms: f64,
    /// 90th-percentile overhead (ms) — where the retry jitter shows.
    pub p90_overhead_ms: f64,
}

/// Channel corruption vs end-to-end loss: unlike server-link loss (see
/// [`loss_robustness`]), WiFi frame errors are recovered by MAC-layer
/// retransmission — AcuteMon loses *no* probes even at a 15% FER; the
/// cost appears as tail latency instead.
pub fn fer_robustness(k: u32, seed: u64) -> Vec<FerPoint> {
    let rtt = 50u64;
    [0.0f64, 0.05, 0.15]
        .iter()
        .map(|&fer| {
            let mut tb = Testbed::build(
                TestbedConfig::new(seed ^ (fer * 100.0) as u64, phone::nexus5(), rtt)
                    .with_wifi_fer(fer),
            );
            let app = tb.install_app(
                Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
                RuntimeKind::Native,
            );
            tb.run_until(SimTime::from_secs(60));
            let am = tb.sim.node::<PhoneNode>(tb.phone).app::<AcuteMonApp>(app);
            let mut du = am.records.du();
            du.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            FerPoint {
                fer,
                completion: am.records.completion(),
                median_overhead_ms: median(&du).unwrap_or(0.0) - rtt as f64,
                p90_overhead_ms: am_stats::quantile(&du, 0.9).unwrap_or(0.0) - rtt as f64,
            }
        })
        .collect()
}

/// One arm of the energy-cost experiment.
#[derive(Debug, Clone, ToJson)]
pub struct EnergyArm {
    /// Strategy description.
    pub arm: &'static str,
    /// Median measurement overhead over the emulated RTT (ms).
    pub median_overhead_ms: f64,
    /// Keep-awake packets spent (warm-up + background, or extra probes).
    pub keepawake_pkts: u64,
    /// Of those, how many crossed the gateway and loaded the path.
    pub path_load_pkts: u64,
    /// Radio CAM time during the run (ms — energy proxy).
    pub cam_ms: f64,
    /// Host-bus awake time during the run (ms — energy proxy).
    pub bus_awake_ms: f64,
    /// Wall-clock duration of the run (ms), for normalizing the above.
    pub duration_ms: f64,
}

/// Quantify §4.1's "AcuteMon consumes very low battery": compare three
/// ways of measuring a 50 ms path with K probes on a Nexus 5 —
///
/// 1. **AcuteMon**: TTL-1 keep-awake at `db` = 20 ms; nothing loads the
///    path; radio awake only for the measurement.
/// 2. **Flood probing**: ping at a 10 ms interval (the §3.1 trick that
///    also keeps the phone awake) — accurate, but every packet crosses
///    the whole path and K must grow with the desired sample count.
/// 3. **Naive probing**: ping at 1 s — cheap but inflated.
pub fn energy_cost(k: u32, seed: u64) -> Vec<EnergyArm> {
    let rtt = 50u64;
    let mut out = Vec::new();

    // Arm 1: AcuteMon.
    {
        let mut tb = Testbed::build(TestbedConfig::new(seed, phone::nexus5(), rtt));
        let app = tb.install_app(
            Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, k))),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(60));
        let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
        let am = phone_node.app::<AcuteMonApp>(app);
        let du = am.records.du();
        let dur = am.finished_at().map(|t| t.as_ms_f64()).unwrap_or(60_000.0);
        out.push(EnergyArm {
            arm: "AcuteMon (db=20ms, TTL=1)",
            median_overhead_ms: median(&du).unwrap_or(0.0) - rtt as f64,
            keepawake_pkts: am.bt.warmup_sent + am.bt.background_sent,
            path_load_pkts: tb.sim.node::<ServerNode>(tb.server).stats.udp_discarded,
            cam_ms: tb.sta_node().stats.cam_ns as f64 / 1e6,
            bus_awake_ms: phone_node.core().bus.stats.awake_ns as f64 / 1e6,
            duration_ms: dur,
        });
    }

    // Arm 2: flood probing (ping every 10 ms, same probe count).
    {
        let mut tb = Testbed::build(TestbedConfig::new(seed ^ 0xE1, phone::nexus5(), rtt));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                addr::SERVER,
                k,
                SimDuration::from_millis(10),
            )),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(60));
        let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
        let ping = phone_node.app::<BaselineApp>(app);
        let du = ping.records.du();
        let dur = ping
            .finished_at()
            .map(|t| t.as_ms_f64())
            .unwrap_or(60_000.0);
        // Every probe crosses the path; "keep-awake" here is the probe
        // stream itself.
        out.push(EnergyArm {
            arm: "flood ping (10ms interval)",
            median_overhead_ms: median(&du).unwrap_or(0.0) - rtt as f64,
            keepawake_pkts: u64::from(k),
            path_load_pkts: u64::from(k),
            cam_ms: tb.sta_node().stats.cam_ns as f64 / 1e6,
            bus_awake_ms: phone_node.core().bus.stats.awake_ns as f64 / 1e6,
            duration_ms: dur,
        });
    }

    // Arm 3: naive probing (ping every 1 s).
    {
        let mut tb = Testbed::build(TestbedConfig::new(seed ^ 0xE2, phone::nexus5(), rtt));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                addr::SERVER,
                k,
                SimDuration::from_secs(1),
            )),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(u64::from(k) + 10));
        let phone_node = tb.sim.node::<PhoneNode>(tb.phone);
        let ping = phone_node.app::<BaselineApp>(app);
        let du = ping.records.du();
        let dur = ping
            .finished_at()
            .map(|t| t.as_ms_f64())
            .unwrap_or(60_000.0);
        out.push(EnergyArm {
            arm: "naive ping (1s interval)",
            median_overhead_ms: median(&du).unwrap_or(0.0) - rtt as f64,
            keepawake_pkts: 0,
            path_load_pkts: 0,
            cam_ms: tb.sta_node().stats.cam_ns as f64 / 1e6,
            bus_awake_ms: phone_node.core().bus.stats.awake_ns as f64 / 1e6,
            duration_ms: dur,
        });
    }
    out
}

/// One arm of the cellular (RRC) extension experiment.
#[derive(Debug, Clone, ToJson)]
pub struct CellularArm {
    /// Radio technology (`"lte"` / `"umts"`).
    pub rat: &'static str,
    /// Tool arm description.
    pub arm: &'static str,
    /// Median measured RTT (ms) over the 40 ms core path.
    pub median_du_ms: f64,
    /// 90th-percentile RTT (ms).
    pub p90_du_ms: f64,
    /// RRC promotions (uplink wakes) paid during the run.
    pub ul_wakes: u64,
}

/// The §4 cellular extension: on LTE and UMTS, sparse probing (15 s
/// interval, past the RRC idle timer) pays promotion on every probe,
/// while AcuteMon's warm-up/background scheme keeps the bearer in the
/// connected tier and the probes clean — the RRC analogue of the WiFi
/// result.
pub fn cellular(k: u32, seed: u64) -> Vec<CellularArm> {
    use crate::{cell_addr, CellTestbed, CellTestbedConfig};
    let mut out = Vec::new();
    for (rat, mk) in [
        (
            "lte",
            CellTestbedConfig::lte as fn(u64, phone::PhoneProfile, u64) -> CellTestbedConfig,
        ),
        ("umts", CellTestbedConfig::umts),
    ] {
        // Arm 1: sparse ping (idle between probes).
        let mut tb = CellTestbed::build(mk(seed, phone::nexus5(), 40));
        let app = tb.install_app(
            Box::new(BaselineApp::new(
                Baseline::Ping,
                cell_addr::SERVER,
                k.min(12),
                SimDuration::from_secs(20),
            )),
            RuntimeKind::Native,
        );
        tb.run_until(SimTime::from_secs(20 * u64::from(k.min(12)) + 20));
        let mut du = tb.app::<BaselineApp>(app).records.du();
        du.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let ul_wakes = tb
            .sim
            .node::<cellular::CellNode>(tb.cell)
            .rrc
            .stats
            .ul_wakes;
        out.push(CellularArm {
            rat,
            arm: "ping 20s interval",
            median_du_ms: median(&du).unwrap_or(0.0),
            p90_du_ms: am_stats::quantile(&du, 0.9).unwrap_or(0.0),
            ul_wakes,
        });

        // Arm 2: AcuteMon (background keeps the bearer connected).
        let mut tb2 = CellTestbed::build(mk(seed ^ 0xC, phone::nexus5(), 40));
        let app2 = tb2.install_app(
            Box::new(AcuteMonApp::new(AcuteMonConfig::new(cell_addr::SERVER, k))),
            RuntimeKind::Native,
        );
        tb2.run_until(SimTime::from_secs(60));
        let am = tb2.app::<AcuteMonApp>(app2);
        let mut du2 = am.records.du();
        du2.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let ul_wakes2 = tb2
            .sim
            .node::<cellular::CellNode>(tb2.cell)
            .rrc
            .stats
            .ul_wakes;
        out.push(CellularArm {
            rat,
            arm: "AcuteMon",
            median_du_ms: median(&du2).unwrap_or(0.0),
            p90_du_ms: am_stats::quantile(&du2, 0.9).unwrap_or(0.0),
            ul_wakes: ul_wakes2,
        });
    }
    out
}

/// Render any ablation output as aligned text.
pub fn render<T: ToJson>(title: &str, rows: &[T]) -> String {
    let mut out = format!("{title}\n");
    for r in rows {
        out.push_str(&format!("  {}\n", obs::ToJson::to_json(r)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_beyond_timeouts_brings_overhead_back() {
        let points = db_sweep(20, 3);
        let at = |db: u64| {
            points
                .iter()
                .find(|p| p.db_ms == db)
                .expect("point")
                .overhead_ms
        };
        assert!(at(20) < 4.0, "db=20 overhead {}", at(20));
        assert!(
            at(120) > at(20) + 3.0,
            "db=120 ({}) should exceed db=20 ({})",
            at(120),
            at(20)
        );
    }

    #[test]
    fn ttl64_loads_the_path_ttl1_does_not() {
        let arms = ttl_ablation(15, 4);
        let t1 = arms.iter().find(|a| a.ttl == 1).unwrap();
        let t64 = arms.iter().find(|a| a.ttl == 64).unwrap();
        assert_eq!(t1.server_load_pkts, 0);
        assert!(t64.server_load_pkts > 10);
        // Accuracy equivalent either way.
        assert!((t1.median_du_ms - t64.median_du_ms).abs() < 3.0);
    }

    #[test]
    fn ping2_fails_on_long_paths() {
        let arms = ping2_comparison(10, 5);
        let short = arms.iter().find(|a| a.rtt_ms == 20).unwrap();
        let long = arms.iter().find(|a| a.rtt_ms == 120).unwrap();
        // Short path: both fine.
        assert!(short.ping2_overhead_ms < 5.0, "{}", short.ping2_overhead_ms);
        // Long path: ping2 re-pays the wake; AcuteMon does not.
        assert!(long.ping2_overhead_ms > 8.0, "{}", long.ping2_overhead_ms);
        assert!(
            long.acutemon_overhead_ms < 5.0,
            "{}",
            long.acutemon_overhead_ms
        );
    }

    #[test]
    fn static_psm_rounds_up() {
        let arms = static_psm(20, 6);
        let st = arms.iter().find(|a| a.policy == "static").unwrap();
        let ad = arms.iter().find(|a| a.policy == "adaptive").unwrap();
        assert!(
            st.median_du_ms > ad.median_du_ms + 15.0,
            "static {} vs adaptive {}",
            st.median_du_ms,
            ad.median_du_ms
        );
    }

    #[test]
    fn mac_retries_hide_channel_errors() {
        let points = fer_robustness(30, 12);
        let at = |fer: f64| points.iter().find(|p| (p.fer - fer).abs() < 1e-9).unwrap();
        // Completion stays perfect: MAC ARQ recovers corruption.
        for p in &points {
            assert!(
                (p.completion - 1.0).abs() < 1e-12,
                "fer {} lost probes",
                p.fer
            );
        }
        // But the tail pays for the retries.
        assert!(
            at(0.15).p90_overhead_ms > at(0.0).p90_overhead_ms,
            "retry jitter should show in the tail: {} vs {}",
            at(0.15).p90_overhead_ms,
            at(0.0).p90_overhead_ms
        );
        assert!(at(0.15).median_overhead_ms < 6.0);
    }

    #[test]
    fn uapsd_trigger_bound_vs_acutemon() {
        let arms = uapsd(20, 11);
        let find = |name: &str| arms.iter().find(|a| a.arm.starts_with(name)).unwrap();
        let legacy = find("legacy");
        let uapsd_ping = find("U-APSD + ping");
        let uapsd_am = find("U-APSD + AcuteMon");
        // Legacy: beacon-bounded inflation (~60 + tens of ms), via PS-Poll.
        assert!(legacy.median_du_ms > 80.0, "{}", legacy.median_du_ms);
        assert!(legacy.ps_polls > 0, "legacy must PS-Poll");
        // U-APSD + sparse ping: trigger-bound — the response waits for
        // the NEXT probe, a second away.
        assert!(
            uapsd_ping.median_du_ms > 500.0,
            "{}",
            uapsd_ping.median_du_ms
        );
        assert_eq!(uapsd_ping.ps_polls, 0, "U-APSD must not PS-Poll");
        // U-APSD + AcuteMon: the background stream is a trigger stream.
        assert!(uapsd_am.median_du_ms < 66.0, "{}", uapsd_am.median_du_ms);
        assert_eq!(uapsd_am.ps_polls, 0);
    }

    #[test]
    fn loss_degrades_completion_not_accuracy() {
        let points = loss_robustness(40, 10);
        let at = |loss: f64| {
            points
                .iter()
                .find(|p| (p.loss - loss).abs() < 1e-9)
                .unwrap()
        };
        assert!((at(0.0).completion - 1.0).abs() < 1e-12);
        // With 10% per-direction loss, ~19% of probes are lost — but
        // every completed probe is still clean, and the run terminates.
        let lossy = at(0.10);
        assert!(lossy.completion > 0.6, "completion {}", lossy.completion);
        assert!(lossy.completion < 1.0, "loss had no effect?");
        assert!(
            lossy.median_overhead_ms < 4.0,
            "overhead {}",
            lossy.median_overhead_ms
        );
        assert!(lossy.duration_ms < 120_000.0, "run did not terminate");
    }

    #[test]
    fn energy_acutemon_accurate_and_path_neutral() {
        let arms = energy_cost(25, 9);
        let find = |name: &str| arms.iter().find(|a| a.arm.starts_with(name)).unwrap();
        let am = find("AcuteMon");
        let flood = find("flood");
        let naive = find("naive");
        // Accuracy: AcuteMon ≈ flood ≪ naive.
        assert!(am.median_overhead_ms < 4.0, "{}", am.median_overhead_ms);
        assert!(
            flood.median_overhead_ms < 4.0,
            "{}",
            flood.median_overhead_ms
        );
        assert!(
            naive.median_overhead_ms > 15.0,
            "{}",
            naive.median_overhead_ms
        );
        // Path neutrality: AcuteMon's keep-awake never crosses the
        // gateway; the flood's every packet does.
        assert_eq!(am.path_load_pkts, 0);
        assert!(flood.path_load_pkts >= 25);
        // Energy: AcuteMon's radio-awake time is bounded by the
        // measurement length, far below the naive arm's (which stays
        // partially awake across ~25 s of sparse probing).
        assert!(
            am.cam_ms < naive.cam_ms,
            "{} vs {}",
            am.cam_ms,
            naive.cam_ms
        );
    }

    #[test]
    fn cellular_acutemon_avoids_rrc_promotions() {
        let arms = cellular(15, 8);
        let find = |rat: &str, arm: &str| {
            arms.iter()
                .find(|a| a.rat == rat && a.arm == arm)
                .expect("arm present")
        };
        for rat in ["lte", "umts"] {
            let sparse = find(rat, "ping 20s interval");
            let am = find(rat, "AcuteMon");
            assert!(
                sparse.median_du_ms > am.median_du_ms + 50.0,
                "{rat}: sparse {} vs AcuteMon {}",
                sparse.median_du_ms,
                am.median_du_ms
            );
            // AcuteMon pays at most the initial promotion.
            assert!(am.ul_wakes <= 2, "{rat}: {} wakes", am.ul_wakes);
        }
        // UMTS promotions are far costlier than LTE ones.
        assert!(
            find("umts", "ping 20s interval").median_du_ms
                > find("lte", "ping 20s interval").median_du_ms + 500.0
        );
    }

    #[test]
    fn listen_interval_scales_downlink_wait() {
        let arms = listen_interval_sweep(6, 7);
        let w = |l: u32| {
            arms.iter()
                .find(|a| a.listen_interval == l)
                .unwrap()
                .median_wait_ms
        };
        // Expected mean wait ≈ IB×(L+1)/2; medians should be ordered and
        // roughly scale.
        assert!(w(1) > w(0), "L=1 {} vs L=0 {}", w(1), w(0));
        assert!(w(9) > w(3), "L=9 {} vs L=3 {}", w(9), w(3));
        assert!(w(9) > 250.0, "L=9 wait {}", w(9));
    }
}
